"""Unit tests for the ALCH language module."""

import pytest

from repro.approximation.owl import (
    BOTTOM,
    TOP,
    All,
    And,
    Not,
    Or,
    OwlClass,
    OwlOntology,
    OwlSubClassOf,
    OwlSubPropertyOf,
    Some,
    class_signature,
    nnf,
)

A, B, C = OwlClass("A"), OwlClass("B"), OwlClass("C")


def test_and_or_flatten():
    assert And(And(A, B), C).operands == (A, B, C)
    assert Or(A, Or(B, C)).operands == (A, B, C)


def test_expressions_are_hashable():
    assert len({And(A, B), And(A, B), Or(A, B)}) == 2
    assert Some("r", A) == Some("r", A)
    assert Some("r", A) != Some("s", A)


def test_ontology_sugar_normalizes():
    ontology = OwlOntology()
    ontology.equivalent(A, B)
    ontology.disjoint(A, C)
    ontology.domain("r", A)
    ontology.range("r", B)
    ontology.subproperty("r", "s")
    axioms = set(ontology.axioms)
    assert OwlSubClassOf(A, B) in axioms
    assert OwlSubClassOf(B, A) in axioms
    assert OwlSubClassOf(A, Not(C)) in axioms
    assert OwlSubClassOf(Some("r", TOP), A) in axioms
    assert OwlSubClassOf(TOP, All("r", B)) in axioms
    assert OwlSubPropertyOf("r", "s") in axioms


def test_ontology_deduplicates():
    ontology = OwlOntology()
    assert ontology.add(OwlSubClassOf(A, B)) is True
    assert ontology.add(OwlSubClassOf(A, B)) is False
    assert len(ontology) == 1


def test_signature_collection():
    ontology = OwlOntology()
    ontology.subclass(A, Some("r", And(B, All("s", C))))
    assert ontology.class_names() == {"A", "B", "C"}
    assert ontology.role_names() == {"r", "s"}
    assert class_signature(Not(And(A, Some("r", B)))) == {A, B}


def test_nnf_fixpoint():
    expression = Not(And(A, Or(Not(B), Some("r", Not(C)))))
    normal = nnf(expression)
    assert nnf(normal) == normal
    # no negation above non-atomic subexpressions
    def check(expr):
        if isinstance(expr, Not):
            assert isinstance(expr.operand, OwlClass)
        elif isinstance(expr, (And, Or)):
            for operand in expr.operands:
                check(operand)
        elif isinstance(expr, (Some, All)):
            check(expr.filler)

    check(normal)


def test_nnf_constants():
    assert nnf(Not(TOP)) == BOTTOM
    assert nnf(Not(BOTTOM)) == TOP


def test_add_rejects_raw_objects():
    with pytest.raises(TypeError):
        OwlOntology().add("A subclassof B")
