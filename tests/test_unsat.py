"""Unit tests for computeUnsat (Ω_T)."""

from repro.core import GraphClassifier, classify
from repro.dllite import (
    AtomicConcept,
    AtomicRole,
    parse_tbox,
)

A = AtomicConcept("A")
P = AtomicRole("P")


def unsat_names(text):
    classification = classify(parse_tbox(text))
    return {str(node) for node in classification.unsatisfiable()}


def test_no_negative_inclusions_no_unsat(county_tbox):
    classification = classify(parse_tbox("A isa B\nB isa C"))
    assert classification.unsatisfiable() == set()


def test_predecessor_intersection_seed():
    # the paper's rule: S below both sides of a NI is unsatisfiable
    assert unsat_names("Dead isa A\nDead isa B\nA isa not B") == {"Dead"}


def test_self_disjointness_kills_concept_and_subsumees():
    assert unsat_names("A isa not A\nB isa A") == {"A", "B"}


def test_role_companions_die_together():
    names = unsat_names("exists P isa A\nexists P isa B\nA isa not B")
    # ∃P unsatisfiable forces P, P⁻ and ∃P⁻ unsatisfiable too
    assert names == {"∃P", "P", "P⁻", "∃P⁻"}


def test_role_disjointness_seeds_role_unsat():
    names = unsat_names("role P, R\nP isa R\nP isa not R")
    assert {"P", "P⁻", "∃P", "∃P⁻"} <= names
    assert "R" not in names


def test_unsat_propagates_to_predecessors():
    names = unsat_names(
        "Bottomish isa A\nBottomish isa B\nA isa not B\nLower isa Bottomish"
    )
    assert {"Bottomish", "Lower"} <= names


def test_qualified_filler_unsat_kills_lhs():
    # B ⊑ ∃P.Dead with Dead unsatisfiable makes B unsatisfiable —
    # the case computeUnsat's fixpoint exists for.
    names = unsat_names(
        """
        Dead isa X
        Dead isa Y
        X isa not Y
        B isa exists P . Dead
        """
    )
    assert "Dead" in names
    assert "B" in names


def test_qualified_cascade_two_levels():
    names = unsat_names(
        """
        Dead isa X
        Dead isa Y
        X isa not Y
        Mid isa exists P . Dead
        Top isa exists R . Mid
        """
    )
    assert {"Dead", "Mid", "Top"} <= names


def test_unsat_role_kills_existential_sources():
    names = unsat_names(
        """
        P isa not P
        B isa exists P
        """
    )
    assert {"P", "B"} <= names


def test_attribute_domain_unsat_kills_attribute():
    names = unsat_names(
        """
        attribute u
        domain(u) isa A
        domain(u) isa B
        A isa not B
        """
    )
    assert {"u", "δ(u)"} <= names


def test_attribute_disjointness():
    names = unsat_names("attribute u, v\nu isa v\nu isa not v")
    assert "u" in names and "δ(u)" in names
    assert "v" not in names


def test_satisfiable_siblings_untouched():
    names = unsat_names("A isa not B\nSubA isa A\nSubB isa B")
    assert names == set()


def test_phi_only_mode_skips_unsat():
    classifier = GraphClassifier(include_unsat=False)
    classification = classifier.classify(parse_tbox("A isa not A"))
    assert classification.unsatisfiable() == set()
