"""Unit tests for the modeling-pattern catalog (§8)."""

import pytest

from repro.core import ImplicationChecker, classify
from repro.dllite import ABox, AtomicRole, Individual, RoleAssertion, TBox, parse_axiom
from repro.obda import OBDASystem
from repro.patterns import (
    n_ary_relation_pattern,
    part_whole_pattern,
    role_qualification_pattern,
    temporal_snapshot_pattern,
)


def test_part_whole_matches_figure2():
    instance = part_whole_pattern(
        "County", "State", role="isPartOf", mandatory_whole=True
    )
    axioms = set(instance.axioms)
    assert parse_axiom("County isa exists isPartOf . State") in axioms
    assert parse_axiom("State isa exists isPartOf^- . County") in axioms


def test_part_whole_exclusive_adds_functionality():
    instance = part_whole_pattern("Wheel", "Car", exclusive=True)
    assert parse_axiom("funct isPartOf") in set(instance.axioms)


def test_apply_merges_into_tbox():
    tbox = TBox(name="geo")
    part_whole_pattern("County", "State").apply(tbox)
    assert len(tbox) >= 1
    classification = classify(tbox)
    assert classification.unsatisfiable() == set()


def test_temporal_snapshot_entailments():
    tbox = TBox()
    temporal_snapshot_pattern("Employee").apply(tbox)
    checker = ImplicationChecker.for_tbox(tbox)
    assert checker.entails(
        parse_axiom("Employee isa exists hasSnapshot . EmployeeSnapshot")
    )
    assert checker.entails(parse_axiom("EmployeeSnapshot isa domain(atTime)"))
    assert checker.entails(parse_axiom("Employee isa not EmployeeSnapshot"))
    assert classify(tbox).unsatisfiable() == set()


def test_temporal_snapshot_functionality_checked_by_obda():
    tbox = TBox()
    temporal_snapshot_pattern("Employee").apply(tbox)
    abox = ABox(
        [
            RoleAssertion(AtomicRole("hasSnapshot"), Individual("e1"), Individual("s1")),
            RoleAssertion(AtomicRole("hasSnapshot"), Individual("e2"), Individual("s1")),
        ]
    )
    system = OBDASystem(tbox, abox=abox)
    # snapshot s1 has two subjects: violates (funct hasSnapshot⁻)
    assert not system.is_consistent()


def test_n_ary_relation_reification():
    instance = n_ary_relation_pattern(
        "Exam", [("examStudent", "Student"), ("examCourse", "Course")]
    )
    tbox = TBox()
    instance.apply(tbox)
    checker = ImplicationChecker.for_tbox(tbox)
    assert checker.entails(parse_axiom("Exam isa exists examStudent . Student"))
    assert checker.entails(parse_axiom("Exam isa exists examCourse . Course"))
    assert "Exam" in instance.introduced
    with pytest.raises(ValueError):
        n_ary_relation_pattern("Solo", [("only", "Thing")])


def test_role_qualification():
    instance = role_qualification_pattern(
        "worksFor", "leads", domain="Manager", range_="Team"
    )
    tbox = TBox()
    instance.apply(tbox)
    checker = ImplicationChecker.for_tbox(tbox)
    assert checker.entails(parse_axiom("leads^- isa worksFor^-"))
    assert checker.entails(parse_axiom("exists leads isa Manager"))
    # a leader works for the team they lead (role chain via hierarchy)
    assert checker.entails(parse_axiom("Manager isa Manager")) is True


def test_patterns_document_themselves():
    for instance in (
        part_whole_pattern("A", "B"),
        temporal_snapshot_pattern("C"),
        n_ary_relation_pattern("R", [("l1", "X"), ("l2", "Y")]),
        role_qualification_pattern("g", "q"),
    ):
        assert instance.rationale
        assert instance.name
        assert list(instance)  # iterable over axioms
