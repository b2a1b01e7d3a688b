"""Unit tests for syntactic and semantic OWL → DL-Lite approximation."""

import pytest

from repro.approximation import (
    OwlOntology,
    completeness_report,
    random_owl_ontology,
    semantic_approximation,
    soundness_report,
    syntactic_approximation,
)
from repro.approximation.owl import And, Or, OwlClass, Some
from repro.dllite import (
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    NegatedConcept,
    QualifiedExistential,
    RoleInclusion,
    parse_axiom,
)

A, B, C = OwlClass("A"), OwlClass("B"), OwlClass("C")


def test_syntactic_keeps_ql_compliant_axioms():
    ontology = OwlOntology()
    ontology.subclass(A, B)
    ontology.subclass(A, Some("r", B))
    ontology.disjoint(A, C)
    ontology.subproperty("r", "s")
    tbox = syntactic_approximation(ontology)
    assert parse_axiom("A isa B") in tbox
    assert ConceptInclusion(
        AtomicConcept("A"), QualifiedExistential(AtomicRole("r"), AtomicConcept("B"))
    ) in tbox
    assert ConceptInclusion(AtomicConcept("A"), NegatedConcept(AtomicConcept("C"))) in tbox
    assert RoleInclusion(AtomicRole("r"), AtomicRole("s")) in tbox


def test_syntactic_splits_rhs_conjunction():
    ontology = OwlOntology()
    ontology.subclass(A, And(B, C))
    tbox = syntactic_approximation(ontology)
    assert parse_axiom("A isa B") in tbox
    assert parse_axiom("A isa C") in tbox


def test_syntactic_splits_lhs_disjunction():
    ontology = OwlOntology()
    ontology.subclass(Or(A, B), C)
    tbox = syntactic_approximation(ontology)
    assert parse_axiom("A isa C") in tbox
    assert parse_axiom("B isa C") in tbox


def test_syntactic_drops_noncompliant():
    ontology = OwlOntology()
    ontology.subclass(A, Or(B, C))  # disjunction on the right: dropped
    ontology.subclass(And(A, B), C)  # conjunction on the left: dropped
    tbox = syntactic_approximation(ontology)
    assert len(tbox) == 0


def test_syntactic_translates_domain_range():
    ontology = OwlOntology()
    ontology.domain("r", A)
    ontology.range("r", B)
    tbox = syntactic_approximation(ontology)
    r = AtomicRole("r")
    assert ConceptInclusion(ExistentialRole(r), AtomicConcept("A")) in tbox
    assert ConceptInclusion(
        ExistentialRole(InverseRole(r)), AtomicConcept("B")
    ) in tbox


def test_semantic_recovers_conjunct_through_inference():
    # A ⊑ B ⊓ ∃r.C is one axiom; semantic approximation extracts each
    # DL-Lite consequence even though the axiom itself is not QL.
    ontology = OwlOntology()
    ontology.subclass(A, And(B, Some("r", C)))
    tbox = semantic_approximation(ontology)
    assert parse_axiom("A isa B") in tbox
    assert ConceptInclusion(
        AtomicConcept("A"), ExistentialRole(AtomicRole("r"))
    ) in tbox
    assert ConceptInclusion(
        AtomicConcept("A"), QualifiedExistential(AtomicRole("r"), AtomicConcept("C"))
    ) in tbox


def test_semantic_range_reasoning():
    ontology = OwlOntology()
    ontology.range("r", B)
    tbox = semantic_approximation(ontology)
    assert ConceptInclusion(
        ExistentialRole(InverseRole(AtomicRole("r"))), AtomicConcept("B")
    ) in tbox


def test_semantic_is_sound_per_axiom():
    ontology = OwlOntology()
    ontology.subclass(A, Or(B, C))  # no QL consequence except trivia
    tbox = semantic_approximation(ontology)
    assert soundness_report(tbox, ontology) == []


def test_global_mode_catches_multi_axiom_inferences():
    ontology = OwlOntology()
    ontology.subclass(A, Or(B, C))
    ontology.subclass(B, OwlClass("D"))
    ontology.subclass(C, OwlClass("D"))
    per_axiom = semantic_approximation(ontology, mode="per_axiom")
    global_ = semantic_approximation(ontology, mode="global")
    target = parse_axiom("A isa D")
    assert target not in per_axiom
    assert target in global_


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        semantic_approximation(OwlOntology(), mode="psychic")


@pytest.mark.parametrize("seed", range(8))
def test_random_ontologies_sound_and_recall_ordering(seed):
    ontology = random_owl_ontology(seed, classes=4, roles=2, axioms=6)
    syntactic = syntactic_approximation(ontology)
    semantic = semantic_approximation(ontology)
    semantic_report = completeness_report(semantic, ontology)
    assert semantic_report.is_sound
    syntactic_report = completeness_report(syntactic, ontology)
    # per-axiom semantic approximation preserves at least as much as syntactic
    assert semantic_report.recall >= syntactic_report.recall - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_global_mode_is_most_complete(seed):
    ontology = random_owl_ontology(seed, classes=3, roles=1, axioms=5)
    global_ = semantic_approximation(ontology, mode="global")
    report = completeness_report(global_, ontology)
    assert report.recall == pytest.approx(1.0)
    assert report.is_sound
