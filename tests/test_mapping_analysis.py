"""Unit tests for the mapping analyzer and instance-level services."""

import pytest

from repro.dllite import AtomicConcept, parse_tbox
from repro.errors import ReproError
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.mapping import IriTemplate
from repro.obda.mapping_analysis import analyze_mappings


@pytest.fixture
def db():
    database = Database()
    database.create_table("staff", ["id", "role"], [(1, "prof")])
    return database


def good_mapping():
    return MappingAssertion(
        "SELECT id FROM staff",
        [TargetAtom(AtomicConcept("Professor"), (IriTemplate("p/{id}"),))],
        identifier="m-good",
    )


def test_clean_mappings_yield_no_schema_issues(db):
    issues = analyze_mappings(MappingCollection([good_mapping()]), db)
    assert issues == []


def test_missing_table_reported(db):
    bad = MappingAssertion(
        "SELECT id FROM ghosts",
        [TargetAtom(AtomicConcept("Ghost"), (IriTemplate("g/{id}"),))],
        identifier="m-ghost",
    )
    issues = analyze_mappings(MappingCollection([bad]), db)
    assert any(
        issue.severity == "error" and "ghosts" in issue.message for issue in issues
    )


def test_missing_column_reported(db):
    bad = MappingAssertion(
        "SELECT wages FROM staff",
        [TargetAtom(AtomicConcept("Paid"), (IriTemplate("p/{wages}"),))],
    )
    issues = analyze_mappings(MappingCollection([bad]), db)
    assert any(issue.category == "schema" for issue in issues)


def test_template_column_not_produced(db):
    bad = MappingAssertion(
        "SELECT id FROM staff",
        [TargetAtom(AtomicConcept("Paid"), (IriTemplate("p/{salary}"),))],
        identifier="m-tmpl",
    )
    issues = analyze_mappings(MappingCollection([bad]), db)
    assert any("salary" in issue.message for issue in issues)


def test_duplicate_mapping_warned(db):
    issues = analyze_mappings(
        MappingCollection([good_mapping(), good_mapping()]), db
    )
    assert any("duplicate" in issue.message for issue in issues)


def test_coverage_against_tbox(db):
    tbox = parse_tbox("Professor isa Teacher")
    issues = analyze_mappings(MappingCollection([good_mapping()]), db, tbox)
    messages = [issue.message for issue in issues]
    assert any("'Teacher' has no mapping" in m for m in messages)
    assert not any("'Professor'" in m and "no mapping" in m for m in messages)


def test_unknown_mapped_predicate_warned(db):
    tbox = parse_tbox("Teacher isa Person")
    issues = analyze_mappings(MappingCollection([good_mapping()]), db, tbox)
    assert any(
        "not in the ontology signature" in issue.message for issue in issues
    )


def test_mapping_into_unsatisfiable_predicate_is_error(db):
    tbox = parse_tbox(
        "Professor isa A\nProfessor isa B\nA isa not B"
    )
    issues = analyze_mappings(MappingCollection([good_mapping()]), db, tbox)
    assert any(
        issue.severity == "error" and "unsatisfiable" in issue.message
        for issue in issues
    )


def test_a_concept_and_a_role_sharing_a_name_are_analyzed_apart():
    from repro.dllite import TBox
    from repro.dllite.axioms import ConceptInclusion, RoleInclusion
    from repro.dllite.syntax import AtomicRole, NegatedConcept

    concept, role = AtomicConcept("P"), AtomicRole("P")
    tbox = TBox(
        [
            ConceptInclusion(concept, NegatedConcept(concept)),  # unsatisfiable
            RoleInclusion(AtomicRole("R"), role),
        ]
    )
    database = Database()
    database.create_table("r", ["s", "o"], [(1, 2)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s, o FROM r",
                [TargetAtom(role, (IriTemplate("a/{s}"), IriTemplate("a/{o}")))],
            )
        ]
    )
    messages = [str(issue) for issue in analyze_mappings(mappings, database, tbox)]
    assert not any("unsatisfiable" in message for message in messages)
    assert messages == [
        "[warning/coverage] ontology predicate 'P' has no mapping "
        "(its extent is always empty)",
        "[warning/coverage] ontology predicate 'R' has no mapping "
        "(its extent is always empty)",
    ]


def test_obda_system_facade(db):
    tbox = parse_tbox("Professor isa Teacher")
    system = OBDASystem(
        tbox, mappings=MappingCollection([good_mapping()]), database=db
    )
    issues = system.analyze_mappings()
    assert all(issue.severity in ("error", "warning") for issue in issues)
    abox_system = OBDASystem(tbox, abox=__import__("repro.dllite", fromlist=["ABox"]).ABox())
    with pytest.raises(ReproError):
        abox_system.analyze_mappings()


def test_instance_services(db):
    tbox = parse_tbox("role teaches\nProfessor isa Teacher\nTeacher isa exists teaches")
    system = OBDASystem(
        tbox, mappings=MappingCollection([good_mapping()]), database=db
    )
    names = {str(a[0]) for a in system.instances_of("Teacher")}
    assert names == {"p/1"}
    assert system.instance_check("exists teaches", "p/1")
    assert not system.instance_check("Student", "p/1")


def test_issue_rendering():
    from repro.obda.mapping_analysis import MappingIssue

    issue = MappingIssue("error", "schema", "boom", "m1")
    assert str(issue) == "[error/schema] boom (mapping m1)"
