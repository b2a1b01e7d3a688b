"""Integration tests for the full OBDA system."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dllite import (
    ABox,
    AtomicConcept,
    AtomicRole,
    ConceptAssertion,
    Individual,
    parse_tbox,
)
from repro.errors import InconsistentOntology, ReproError
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.mapping import IriTemplate
from repro.obs.trace import Tracer, use_tracer
from repro.testkit import naive_sql_answers

METHODS = ("perfectref", "perfectref-sql", "presto")


@pytest.fixture
def university():
    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches isa Teacher
        exists teaches^- isa Course
        Student isa not Teacher
        funct teaches^-
        """
    )
    db = Database("campus")
    db.create_table(
        "staff",
        ["id", "role"],
        [(1, "prof"), (2, "prof"), (3, "lecturer")],
    )
    db.create_table("teaching", ["staff_id", "course"], [(1, "logic"), (2, "compilers")])
    db.create_table("enrolled", ["sid"], [(10,), (11,)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'lecturer'",
                [TargetAtom(AtomicConcept("Teacher"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT staff_id, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("person/{staff_id}"), IriTemplate("course/{course}")),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT sid FROM enrolled",
                [TargetAtom(AtomicConcept("Student"), (IriTemplate("person/{sid}"),))],
            ),
        ]
    )
    return OBDASystem(tbox, mappings=mappings, database=db)


def test_construction_validation():
    tbox = parse_tbox("A isa B")
    with pytest.raises(ReproError):
        OBDASystem(tbox)
    with pytest.raises(ReproError):
        OBDASystem(tbox, mappings=MappingCollection(), database=None)
    with pytest.raises(ReproError):
        OBDASystem(
            tbox,
            mappings=MappingCollection(),
            database=Database(),
            abox=ABox(),
        )


@pytest.mark.parametrize("method", METHODS)
def test_all_methods_agree_on_person(university, method):
    answers = university.certain_answers("q(x) :- Person(x)", method=method)
    names = {str(a[0]) for a in answers}
    assert names == {"person/1", "person/2", "person/3", "person/10", "person/11"}


@pytest.mark.parametrize("method", METHODS)
def test_inferred_course_memberships(university, method):
    answers = university.certain_answers("q(y) :- Course(y)", method=method)
    assert {str(a[0]) for a in answers} == {"course/logic", "course/compilers"}


@pytest.mark.parametrize("method", METHODS)
def test_existential_witness_not_confused_with_answers(university, method):
    # grace (person/3) is a Teacher hence ∃teaches, but her course is an
    # unnamed witness — she must appear for q(x) but contribute no course.
    answers = university.certain_answers(
        "q(x) :- Teacher(x), teaches(x, y)", method=method
    )
    assert {str(a[0]) for a in answers} == {"person/1", "person/2", "person/3"}
    pairs = university.certain_answers("q(x, y) :- teaches(x, y)", method=method)
    assert len(pairs) == 2


def test_consistency_holds(university):
    assert university.is_consistent()
    assert university.inconsistency_witnesses() == []


def test_ni_violation_detected(university):
    # enrol a professor as a student: Student ⊓ Teacher is forbidden
    university.database["enrolled"].insert((1,))
    assert not university.is_consistent()
    witnesses = university.inconsistency_witnesses()
    assert any("negative inclusion" in witness for witness in witnesses)
    with pytest.raises(InconsistentOntology):
        university.certain_answers("q(x) :- Person(x)")


def test_functionality_violation_detected(university):
    # funct teaches⁻: one course, two teachers
    university.database["teaching"].insert((2, "logic"))
    assert not university.is_consistent()
    witnesses = university.inconsistency_witnesses()
    assert any("functionality" in witness for witness in witnesses)


def test_skip_consistency_check(university):
    university.database["enrolled"].insert((1,))
    answers = university.certain_answers(
        "q(x) :- Person(x)", check_consistency=False
    )
    assert answers  # evaluated anyway


def test_abox_mode():
    tbox = parse_tbox("Professor isa Teacher")
    abox = ABox([ConceptAssertion(AtomicConcept("Professor"), Individual("ada"))])
    system = OBDASystem(tbox, abox=abox)
    answers = system.certain_answers("q(x) :- Teacher(x)")
    assert answers == {(Individual("ada"),)}
    with pytest.raises(ReproError):
        system.certain_answers("q(x) :- Teacher(x)", method="perfectref-sql")


def test_unsat_predicate_with_instances_is_inconsistent():
    tbox = parse_tbox("Dead isa A\nDead isa B\nA isa not B")
    abox = ABox([ConceptAssertion(AtomicConcept("Dead"), Individual("x"))])
    system = OBDASystem(tbox, abox=abox)
    witnesses = system.inconsistency_witnesses()
    assert witnesses
    # an empty Dead extent is fine
    clean = OBDASystem(tbox, abox=ABox())
    assert clean.is_consistent()


_SELF_DISJOINT = """
import json
from repro.dllite import ABox, AtomicConcept, ConceptAssertion, Individual, parse_tbox
from repro.obda import OBDASystem

names = "ABCD"
tbox = parse_tbox("\\n".join(f"{name} isa not {name}" for name in names))
abox = ABox([ConceptAssertion(AtomicConcept(name), Individual("x")) for name in names])
print(json.dumps(OBDASystem(tbox, abox=abox).inconsistency_witnesses()))
"""


def test_unsatisfiable_witnesses_do_not_follow_the_hash_seed():
    """Populated unsatisfiable predicates are listed by arity and name,
    so every hash seed lists them alike."""
    source = str(Path(repro.__file__).resolve().parents[1])
    listed = set()
    for seed in ("1", "2", "3"):
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
        done = subprocess.run(
            [sys.executable, "-c", _SELF_DISJOINT],
            env=environment,
            capture_output=True,
            text=True,
            check=True,
        )
        listed.add(done.stdout)
    [witnesses] = listed
    assert json.loads(witnesses) == [
        *[f"negative inclusion violated: {name} ⊑ ¬{name}" for name in "ABCD"],
        *[f"unsatisfiable predicate populated: {name}" for name in "ABCD"],
    ]


def test_rewrite_only_api(university):
    ucq = university.rewrite("q(x) :- Person(x)")
    assert len(ucq) >= 4
    datalog = university.rewrite("q(x) :- Person(x)", method="presto")
    assert datalog.rules
    with pytest.raises(ReproError):
        university.rewrite("q(x) :- Person(x)", method="nope")


def test_invalidate_caches_reaches_the_planner_statistics():
    # Rows replaced in place leave the generation counters unchanged, so
    # only invalidate_caches() can tell the system; the table index on
    # teaching[0] the SQL join probes must be dropped with the caches,
    # and so must the planner's statistics (read by no query path).
    tbox = parse_tbox("role hasRole\nrole teaches")
    db = Database("campus")
    staff = db.create_table("staff", ["id", "role"], [(1, "dean"), (2, "tutor")])
    teaching = db.create_table("teaching", ["sid", "course"], [(1, "c1"), (2, "c2")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT * FROM staff",
                [
                    TargetAtom(
                        AtomicRole("hasRole"),
                        (IriTemplate("p/{id}"), IriTemplate("r/{role}")),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT * FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("p/{sid}"), IriTemplate("c/{course}")),
                    )
                ],
            ),
        ]
    )
    system = OBDASystem(tbox, mappings=mappings, database=db)
    query = "q(x, c) :- hasRole(x, r), teaches(x, c)"
    methods = METHODS + ("perfectref-sqlite",)

    def answers():
        found = {
            method: system.certain_answers(query, method=method) for method in methods
        }
        found["naive"] = naive_sql_answers(system, query)
        return found

    tracer = Tracer("probes")
    with use_tracer(tracer):
        for method, answered in answers().items():
            assert len(answered) == 2, method
    probes = [
        (atom, key)
        for span in tracer.spans
        if span.name == "join"
        for atom, key in zip(span.attributes["atoms"], span.attributes["keys"])
    ]
    assert any(atom.startswith("teaching(") and key == [0] for atom, key in probes)
    statistics = system.statistics_catalog().statistics("staff")
    assert statistics.row_count == 2
    # an edit that keeps the row count and the last row: no index stamp
    # (generation, rows consumed, last row) can see it
    staff.rows[0] = (3, "r3")
    teaching.rows[0] = (3, "c3")
    system.invalidate_caches()
    expected = {
        (Individual("p/3"), Individual("c/c3")),
        (Individual("p/2"), Individual("c/c2")),
    }
    for method, answered in answers().items():
        assert answered == expected, method
    staff.rows[:] = [(9, "r9")]
    teaching.rows[:] = [(9, "c9")]
    system.invalidate_caches()
    expected = {(Individual("p/9"), Individual("c/c9"))}
    for method, answered in answers().items():
        assert answered == expected, method
    assert system.statistics_catalog().statistics("staff").row_count == 1
