"""Unit tests for the deductive closure, cross-checked against saturation."""

import random

import pytest

from repro.baselines.saturation import Saturation
from repro.core import deductive_closure
from repro.dllite import (
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
    RoleInclusion,
    parse_tbox,
)
from tests.conftest import make_random_tbox

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
P, R = AtomicRole("P"), AtomicRole("R")


def test_closure_contains_transitive_positives():
    closure = deductive_closure(parse_tbox("A isa B\nB isa C"))
    assert ConceptInclusion(A, C) in closure


def test_closure_contains_role_derived_existentials():
    closure = deductive_closure(parse_tbox("role P, R\nP isa R"))
    assert RoleInclusion(P, R) in closure
    assert ConceptInclusion(ExistentialRole(P), ExistentialRole(R)) in closure
    assert RoleInclusion(InverseRole(P), InverseRole(R)) in closure


def test_qualified_filler_climbs_taxonomy():
    closure = deductive_closure(parse_tbox("A isa exists P . B\nB isa C"))
    assert ConceptInclusion(A, QualifiedExistential(P, C)) in closure


def test_qualified_role_climbs_hierarchy():
    closure = deductive_closure(parse_tbox("A isa exists P . B\nP isa R"))
    assert ConceptInclusion(A, QualifiedExistential(R, B)) in closure


def test_range_axiom_induces_qualified():
    # A ⊑ ∃P and ∃P⁻ ⊑ B entail A ⊑ ∃P.B
    closure = deductive_closure(parse_tbox("A isa exists P\nexists P^- isa B"))
    assert ConceptInclusion(A, QualifiedExistential(P, B)) in closure


def test_implicit_witness_for_existential_lhs():
    # ∃P ⊑ ∃P.B whenever range(P) ⊑ B
    closure = deductive_closure(parse_tbox("exists P^- isa B\nconcept A"))
    assert ConceptInclusion(
        ExistentialRole(P), QualifiedExistential(P, B)
    ) in closure


def test_negative_closure_downward():
    closure = deductive_closure(parse_tbox("A isa B\nB isa not C\nSub isa C"))
    assert ConceptInclusion(A, NegatedConcept(C)) in closure
    assert ConceptInclusion(C, NegatedConcept(A)) in closure
    assert ConceptInclusion(A, NegatedConcept(AtomicConcept("Sub"))) in closure


def test_domain_disjointness_entails_role_disjointness():
    closure = deductive_closure(
        parse_tbox("role P, R\nexists P isa X\nexists R isa Y\nX isa not Y")
    )
    assert RoleInclusion(P, NegatedRole(R)) in closure
    assert RoleInclusion(InverseRole(P), NegatedRole(InverseRole(R))) in closure


def test_role_disjointness_does_not_leak_to_domains():
    closure = deductive_closure(parse_tbox("role P, R\nP isa not R"))
    assert ConceptInclusion(
        ExistentialRole(P), NegatedConcept(ExistentialRole(R))
    ) not in closure


@pytest.mark.parametrize("seed", range(40))
def test_matches_saturation_oracle(seed):
    """Deductive closure == the independent saturation's consequences."""
    tbox = make_random_tbox(random.Random(seed), n_concepts=3, n_roles=2, n_axioms=6)
    closure = deductive_closure(tbox)
    saturation = Saturation(tbox)
    for axiom in closure:
        if isinstance(axiom, ConceptInclusion):
            if isinstance(axiom.rhs, QualifiedExistential):
                assert saturation.entails_qualified(
                    axiom.lhs, axiom.rhs.role, axiom.rhs.filler
                ), f"not entailed per saturation: {axiom}"
            elif isinstance(axiom.rhs, NegatedConcept):
                assert saturation.entails_negative(axiom.lhs, axiom.rhs.concept), axiom
            else:
                assert saturation.entails_pair(axiom.lhs, axiom.rhs), axiom
        elif isinstance(axiom, RoleInclusion):
            if isinstance(axiom.rhs, NegatedRole):
                assert saturation.entails_negative(axiom.lhs, axiom.rhs.role), axiom
            else:
                assert saturation.entails_pair(axiom.lhs, axiom.rhs), axiom


@pytest.mark.parametrize("seed", range(40, 60))
def test_covers_saturation_basics(seed):
    """Every saturation consequence between digraph nodes is in the closure."""
    tbox = make_random_tbox(random.Random(seed), n_concepts=3, n_roles=1, n_axioms=6)
    closure = deductive_closure(tbox)
    saturation = Saturation(tbox)
    closure_set = set(closure)
    for lhs, rhs in saturation.positive:
        if lhs != rhs:
            if isinstance(lhs, (AtomicRole, InverseRole)):
                assert RoleInclusion(lhs, rhs) in closure_set, (lhs, rhs)
            else:
                assert ConceptInclusion(lhs, rhs) in closure_set, (lhs, rhs)
