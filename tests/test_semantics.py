"""Unit tests for the finite-model semantics oracle."""

import random

import pytest

from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    AttributeInclusion,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    NegatedAttribute,
    NegatedConcept,
    QualifiedExistential,
    entails,
    find_countermodel,
    parse_axiom,
    parse_tbox,
)
from repro.dllite.semantics import Interpretation, interpretations, is_satisfiable_concept
from tests.conftest import make_random_tbox

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
P = AtomicRole("P")


def test_interpretation_concept_extensions():
    interpretation = Interpretation(
        2,
        concepts={A: frozenset({0})},
        roles={P: frozenset({(0, 1)})},
    )
    assert interpretation.concept_ext(A) == {0}
    assert interpretation.concept_ext(ExistentialRole(P)) == {0}
    assert interpretation.concept_ext(ExistentialRole(InverseRole(P))) == {1}
    assert interpretation.concept_ext(NegatedConcept(A)) == {1}
    assert interpretation.concept_ext(QualifiedExistential(P, A)) == set()


def test_satisfies_inclusions():
    interpretation = Interpretation(
        2,
        concepts={A: frozenset({0}), B: frozenset({0, 1})},
        roles={P: frozenset({(0, 1)})},
    )
    assert interpretation.satisfies(ConceptInclusion(A, B))
    assert not interpretation.satisfies(ConceptInclusion(B, A))
    assert interpretation.satisfies(ConceptInclusion(ExistentialRole(P), A))


def test_entails_transitivity():
    tbox = parse_tbox("A isa B\nB isa C")
    assert entails(tbox, parse_axiom("A isa C"))
    assert not entails(tbox, parse_axiom("C isa A"))


def test_entails_role_chain_to_existential():
    tbox = parse_tbox("A isa exists P\nP isa R")
    assert entails(tbox, parse_axiom("A isa exists R"))
    assert not entails(tbox, parse_axiom("A isa exists R^-"))


def test_countermodel_is_a_real_countermodel():
    tbox = parse_tbox("A isa B")
    axiom = parse_axiom("B isa A")
    model = find_countermodel(tbox, axiom)
    assert model is not None
    assert model.is_model_of(tbox)
    assert not model.satisfies(axiom)


def test_unsatisfiable_concept_detected():
    tbox = parse_tbox("A isa B\nA isa not B")
    assert not is_satisfiable_concept(tbox, A)
    assert is_satisfiable_concept(tbox, B)


def test_negative_inclusion_entailment():
    tbox = parse_tbox("A isa B\nB isa not C")
    assert entails(tbox, parse_axiom("A isa not C"))
    assert entails(tbox, parse_axiom("C isa not A"))
    assert not entails(tbox, parse_axiom("A isa not B"))


def test_functionality_semantics():
    tbox = parse_tbox("funct P")
    interpretation = Interpretation(
        2, concepts={}, roles={P: frozenset({(0, 0), (0, 1)})}
    )
    axiom = next(iter(tbox))
    assert not interpretation.satisfies(axiom)
    ok = Interpretation(2, concepts={}, roles={P: frozenset({(0, 1)})})
    assert ok.satisfies(axiom)


# -- the pruned search against the exhaustive one ------------------------------


def brute_force_countermodel(tbox, axiom, max_domain=2):
    """Every interpretation in order, the first model of *tbox* violating
    *axiom* wins: the search ``find_countermodel`` prunes."""
    for size in range(1, max_domain + 1):
        for interpretation in interpretations(tbox, size):
            if interpretation.is_model_of(tbox) and not interpretation.satisfies(axiom):
                return interpretation
    return None


def brute_force_satisfiable(tbox, concept, max_domain=2):
    for size in range(1, max_domain + 1):
        for interpretation in interpretations(tbox, size):
            if interpretation.is_model_of(tbox) and interpretation.concept_ext(concept):
                return True
    return False


def state(interpretation):
    if interpretation is None:
        return None
    return (
        interpretation.size,
        interpretation.concepts,
        interpretation.roles,
        interpretation.attributes,
    )


@pytest.mark.parametrize("seed", range(8))
def test_pruned_search_returns_the_exhaustive_searchs_countermodel(seed):
    rng = random.Random(seed)
    tbox = make_random_tbox(rng, n_concepts=2, n_roles=1, n_axioms=4)
    u = AtomicAttribute("U")
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    basics = concepts + [ExistentialRole(AtomicRole("P0")), AttributeDomain(u)]
    tbox.add(ConceptInclusion(rng.choice(basics), rng.choice(basics)))
    if rng.random() < 0.5:
        tbox.add(AttributeInclusion(u, NegatedAttribute(u)))
    candidates = [
        ConceptInclusion(first, second) for first in basics for second in basics
    ] + [ConceptInclusion(first, NegatedConcept(basics[0])) for first in basics]
    # an axiom over a predicate outside the signature is decided at the root
    candidates.append(ConceptInclusion(AtomicConcept("Outside"), concepts[0]))
    for axiom in candidates:
        assert state(find_countermodel(tbox, axiom)) == state(
            brute_force_countermodel(tbox, axiom)
        ), axiom
    for basic in basics:
        assert is_satisfiable_concept(tbox, basic) == brute_force_satisfiable(tbox, basic)
