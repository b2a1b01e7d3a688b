"""Unit tests for SQL unfolding through the mappings."""

import pytest

from repro.dllite import AtomicConcept, AtomicRole, Individual
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    TargetAtom,
    parse_query,
    unfold,
)
from repro.obda.mapping import IriTemplate, ValueColumn


@pytest.fixture
def setup():
    db = Database()
    db.create_table("emp", ["pid", "dept"], [(1, "cs"), (2, "math")])
    db.create_table("dept", ["code", "head"], [("cs", 1), ("math", 2)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT pid FROM emp",
                [TargetAtom(AtomicConcept("Employee"), (IriTemplate("person/{pid}"),))],
            ),
            MappingAssertion(
                "SELECT pid, dept FROM emp",
                [
                    TargetAtom(
                        AtomicRole("worksFor"),
                        (IriTemplate("person/{pid}"), IriTemplate("dept/{dept}")),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT code, head FROM dept",
                [
                    TargetAtom(
                        AtomicRole("headOf"),
                        (IriTemplate("person/{head}"), IriTemplate("dept/{code}")),
                    )
                ],
            ),
        ]
    )
    return db, mappings


def test_single_atom_unfolding(setup):
    db, mappings = setup
    unfolded = unfold(parse_query("q(x) :- Employee(x)"), mappings)
    answers = unfolded.execute(db)
    assert answers == {(Individual("person/1"),), (Individual("person/2"),)}


def test_join_on_matching_templates(setup):
    db, mappings = setup
    # join variable x produced by 'person/{pid}' and 'person/{head}' —
    # structurally identical templates, so the join goes through columns
    unfolded = unfold(parse_query("q(x, d) :- worksFor(x, d), headOf(x, d)"), mappings)
    answers = unfolded.execute(db)
    assert answers == {
        (Individual("person/1"), Individual("dept/cs")),
        (Individual("person/2"), Individual("dept/math")),
    }


def test_incompatible_templates_prune(setup):
    db, mappings = setup
    # y joins an IRI from 'dept/{dept}' with one from 'person/{pid}': disjoint
    unfolded = unfold(parse_query("q(x) :- worksFor(x, y), Employee(y)"), mappings)
    assert unfolded.size == 0
    assert unfolded.execute(db) == set()


def test_constant_parsed_against_template(setup):
    db, mappings = setup
    unfolded = unfold(parse_query("q(d) :- worksFor('person/1', d)"), mappings)
    assert unfolded.execute(db) == {(Individual("dept/cs"),)}


def test_constant_not_matching_template_prunes(setup):
    db, mappings = setup
    unfolded = unfold(parse_query("q(d) :- worksFor('employee:1', d)"), mappings)
    assert unfolded.size == 0


def test_boolean_query(setup):
    db, mappings = setup
    unfolded = unfold(parse_query("q() :- worksFor(x, 'dept/cs')"), mappings)
    assert unfolded.execute(db) == {()}
    empty = unfold(parse_query("q() :- worksFor(x, 'dept/law')"), mappings)
    assert empty.execute(db) == set()


def test_unmapped_predicate_contributes_nothing(setup):
    db, mappings = setup
    unfolded = unfold(parse_query("q(x) :- Ghost(x)"), mappings)
    assert unfolded.size == 0


def test_value_columns_flow_raw():
    db = Database()
    db.create_table("emp", ["pid", "wage"], [(1, 100)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT pid, wage FROM emp",
                [
                    TargetAtom(
                        __import__("repro.dllite", fromlist=["AtomicAttribute"]).AtomicAttribute(
                            "salary"
                        ),
                        (IriTemplate("person/{pid}"), ValueColumn("wage")),
                    )
                ],
            )
        ]
    )
    unfolded = unfold(parse_query("q(x, w) :- salary(x, w)"), mappings)
    assert unfolded.execute(db) == {(Individual("person/1"), 100)}


def test_union_source_mapping():
    """A mapping whose source is a UNION unfolds and executes correctly."""
    db = Database()
    db.create_table("profs", ["pid"], [(1,)])
    db.create_table("lects", ["pid"], [(2,)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT pid FROM profs UNION SELECT pid FROM lects",
                [TargetAtom(AtomicConcept("Teacher"), (IriTemplate("person/{pid}"),))],
            )
        ]
    )
    unfolded = unfold(parse_query("q(x) :- Teacher(x)"), mappings)
    assert unfolded.execute(db) == {
        (Individual("person/1"),),
        (Individual("person/2"),),
    }
