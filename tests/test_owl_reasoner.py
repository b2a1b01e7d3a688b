"""Unit tests for the ALCH tableau reasoner."""

from repro.approximation import OwlOntology, OwlReasoner
from repro.approximation.owl import (
    BOTTOM,
    TOP,
    All,
    And,
    Not,
    Or,
    OwlClass,
    OwlSubClassOf,
    Some,
    nnf,
)

A, B, C, D = OwlClass("A"), OwlClass("B"), OwlClass("C"), OwlClass("D")


def reasoner(*axiom_pairs, subproperties=()):
    ontology = OwlOntology()
    for lhs, rhs in axiom_pairs:
        ontology.subclass(lhs, rhs)
    for sub, super_ in subproperties:
        ontology.subproperty(sub, super_)
    return OwlReasoner(ontology)


def test_nnf_pushes_negation():
    assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))
    assert nnf(Not(Some("r", A))) == All("r", Not(A))
    assert nnf(Not(All("r", A))) == Some("r", Not(A))
    assert nnf(Not(Not(A))) == A
    assert nnf(Not(TOP)) == BOTTOM


def test_atomic_satisfiability():
    r = reasoner((A, B))
    assert r.is_satisfiable([A])
    assert not r.is_satisfiable([And(A, Not(B))])


def test_entails_transitivity():
    r = reasoner((A, B), (B, C))
    assert r.entails(OwlSubClassOf(A, C))
    assert not r.entails(OwlSubClassOf(C, A))


def test_disjunction_branching():
    r = reasoner((A, Or(B, C)), (B, D), (C, D))
    assert r.entails(OwlSubClassOf(A, D))


def test_disjunction_not_overcommitted():
    r = reasoner((A, Or(B, C)))
    assert not r.entails(OwlSubClassOf(A, B))
    assert not r.entails(OwlSubClassOf(A, C))


def test_existential_and_universal_interaction():
    r = reasoner((A, Some("r", B)), (TOP, All("r", C)))
    assert r.entails(OwlSubClassOf(A, Some("r", And(B, C))))


def test_universal_propagation_over_role_hierarchy():
    r = reasoner((A, Some("s", B)), subproperties=[("s", "r")])
    r.ontology.subclass(A, All("r", C))
    r2 = OwlReasoner(r.ontology)
    assert r2.entails(OwlSubClassOf(A, Some("s", C)))


def test_unsatisfiable_class_detected():
    r = reasoner((A, B), (A, Not(B)))
    assert not r.is_satisfiable([A])
    assert r.entails(OwlSubClassOf(A, BOTTOM))


def test_blocking_terminates_cycles():
    # A ⊑ ∃r.A — infinite chase without blocking
    r = reasoner((A, Some("r", A)))
    assert r.is_satisfiable([A])


def test_gci_with_complex_lhs():
    r = reasoner((Some("r", B), C), (A, Some("r", B)))
    assert r.entails(OwlSubClassOf(A, C))


def test_incoming_edge_seed_for_inverse_checks():
    # range-style reasoning: ⊤ ⊑ ∀r.B makes any r-successor a B
    r = reasoner((TOP, All("r", B)))
    assert not r.is_satisfiable([Not(B)], incoming=["r"])
    assert r.is_satisfiable([Not(B)])


def test_incoming_edge_with_subrole():
    r = reasoner((TOP, All("r", B)), subproperties=[("s", "r")])
    assert not r.is_satisfiable([Not(B)], incoming=["s"])


def test_domain_axiom_constrains_predecessor():
    # ∃r.⊤ ⊑ ⊥ means nothing can have an r-successor, so having an
    # incoming r edge is impossible too.
    r = reasoner((Some("r", TOP), BOTTOM))
    assert not r.is_satisfiable([], incoming=["r"])


def test_role_hierarchy_saturation():
    r = reasoner(subproperties=[("p", "q"), ("q", "s")])
    assert r.is_subrole("p", "s")
    assert r.is_subrole("p", "p")
    assert not r.is_subrole("s", "p")
