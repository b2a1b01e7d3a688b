"""Unit tests for the OWL 2 QL functional-syntax reader/writer."""

import pytest

from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeAssertion,
    AttributeDomain,
    ConceptAssertion,
    ConceptInclusion,
    ExistentialRole,
    FunctionalRole,
    Individual,
    InverseRole,
    NegatedConcept,
    QualifiedExistential,
    RoleAssertion,
    RoleInclusion,
    parse_owl_functional,
    serialize_owl_functional,
)
from repro.dllite.ontology import Ontology
from repro.dllite.tbox import TBox
from repro.errors import LanguageViolation

DOC = """
Prefix(:=<http://example.org/uni#>)
Ontology(<http://example.org/uni>
  Declaration(Class(:Professor))
  Declaration(Class(:Course))
  Declaration(ObjectProperty(:teaches))
  Declaration(DataProperty(:salary))
  SubClassOf(:Professor ObjectSomeValuesFrom(:teaches :Course))
  SubClassOf(ObjectSomeValuesFrom(ObjectInverseOf(:teaches) owl:Thing) :Course)
  ObjectPropertyDomain(:teaches :Professor)
  ObjectPropertyRange(:teaches :Course)
  DisjointClasses(:Professor :Course)
  SubObjectPropertyOf(:teaches :involvedWith)
  DataPropertyDomain(:salary :Professor)
  FunctionalObjectProperty(:teaches)
  ClassAssertion(:Professor :ada)
  ObjectPropertyAssertion(:teaches :ada :logic)
  DataPropertyAssertion(:salary :ada "100"^^xsd:integer)
)
"""


def test_parse_full_document():
    ontology = parse_owl_functional(DOC)
    tbox = ontology.tbox
    teaches = AtomicRole("teaches")
    assert ConceptInclusion(
        AtomicConcept("Professor"),
        QualifiedExistential(teaches, AtomicConcept("Course")),
    ) in tbox
    assert ConceptInclusion(
        ExistentialRole(InverseRole(teaches)), AtomicConcept("Course")
    ) in tbox
    assert ConceptInclusion(
        ExistentialRole(teaches), AtomicConcept("Professor")
    ) in tbox
    assert ConceptInclusion(
        AtomicConcept("Professor"), NegatedConcept(AtomicConcept("Course"))
    ) in tbox
    assert RoleInclusion(teaches, AtomicRole("involvedWith")) in tbox
    assert ConceptInclusion(
        AttributeDomain(AtomicAttribute("salary")), AtomicConcept("Professor")
    ) in tbox
    assert FunctionalRole(teaches) in tbox


def test_parse_abox_assertions():
    ontology = parse_owl_functional(DOC)
    ada, logic = Individual("ada"), Individual("logic")
    assert ConceptAssertion(AtomicConcept("Professor"), ada) in ontology.abox
    assert RoleAssertion(AtomicRole("teaches"), ada, logic) in ontology.abox
    assert AttributeAssertion(AtomicAttribute("salary"), ada, 100) in ontology.abox


def test_declarations_reach_signature():
    ontology = parse_owl_functional(
        "Ontology(<http://x> Declaration(Class(:Lonely)))"
    )
    assert AtomicConcept("Lonely") in ontology.signature


def test_inverse_object_property_assertion_is_reoriented():
    ontology = parse_owl_functional(
        "Ontology(<http://x> "
        "ObjectPropertyAssertion(ObjectInverseOf(:p) :a :b))"
    )
    assert RoleAssertion(AtomicRole("p"), Individual("b"), Individual("a")) in ontology.abox


def test_equivalent_classes_becomes_two_inclusions():
    ontology = parse_owl_functional(
        "Ontology(<http://x> EquivalentClasses(:A :B))"
    )
    axioms = set(ontology.tbox.axioms)
    A, B = AtomicConcept("A"), AtomicConcept("B")
    assert axioms == {ConceptInclusion(A, B), ConceptInclusion(B, A)}


def test_inverse_object_properties_axiom():
    ontology = parse_owl_functional(
        "Ontology(<http://x> InverseObjectProperties(:p :q))"
    )
    p, q = AtomicRole("p"), AtomicRole("q")
    assert RoleInclusion(p, InverseRole(q)) in ontology.tbox
    assert RoleInclusion(InverseRole(q), p) in ontology.tbox


def test_n_ary_disjointness_expands_pairwise():
    ontology = parse_owl_functional(
        "Ontology(<http://x> DisjointClasses(:A :B :C))"
    )
    assert len(ontology.tbox.negative_inclusions) == 3


def test_unsupported_axiom_rejected():
    with pytest.raises(LanguageViolation):
        parse_owl_functional(
            "Ontology(<http://x> TransitiveObjectProperty(:p))"
        )


def test_full_iris_use_fragment():
    ontology = parse_owl_functional(
        "Ontology(<http://x> SubClassOf(<http://ex.org/onto#Cat> "
        "<http://ex.org/onto#Animal>))"
    )
    assert ConceptInclusion(AtomicConcept("Cat"), AtomicConcept("Animal")) in ontology.tbox


def test_round_trip(university_tbox):
    text = serialize_owl_functional(university_tbox)
    reparsed = parse_owl_functional(text)
    assert set(reparsed.tbox.axioms) == set(university_tbox.axioms)
    assert reparsed.signature == university_tbox.signature


def test_round_trip_with_abox():
    original = parse_owl_functional(DOC)
    reparsed = parse_owl_functional(serialize_owl_functional(original))
    assert set(reparsed.tbox.axioms) == set(original.tbox.axioms)
    assert set(reparsed.abox) == set(original.abox)


class _OneCallAtATime(TBox):
    """A TBox that takes every batch one predicate or axiom at a time."""

    def declare(self, *predicates):
        for predicate in predicates:
            super().declare(predicate)

    def extend(self, axioms):
        added = 0
        for axiom in axioms:
            added += super().extend((axiom,))
        return added


def _state(tbox):
    return list(tbox), tbox.signature, tbox.generation


def test_declarations_and_axioms_load_in_runs_as_one_call_each():
    """A declaration after an axiom that brought its predicate in moves
    no generation: the runs give the TBox of one call per form."""
    text = """
    Ontology(<http://example.org/runs>
      Declaration(Class(:A))
      SubClassOf(:A :B)
      Declaration(Class(:B))
      Declaration(ObjectProperty(:P))
      SubObjectPropertyOf(:P :Q)
      SubClassOf(:A :B)
      Declaration(Class(:C))
      Declaration(Class(:C))
    )
    """
    A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
    P, Q = AtomicRole("P"), AtomicRole("Q")
    reference = TBox()
    reference.declare(A)
    reference.add(ConceptInclusion(A, B))
    reference.declare(B)
    reference.declare(P)
    reference.add(RoleInclusion(P, Q))
    reference.add(ConceptInclusion(A, B))
    reference.declare(C)
    reference.declare(C)
    assert _state(parse_owl_functional(text).tbox) == _state(reference)


@pytest.mark.parametrize("profile", ["Mouse", "Transportation"])
def test_a_profile_loads_as_one_call_per_form(profile, monkeypatch):
    from repro.corpus.profiles import load_profile
    from repro.dllite import owlfs

    text = serialize_owl_functional(load_profile(profile, scale=0.2))
    batched = parse_owl_functional(text).tbox
    monkeypatch.setattr(
        owlfs, "Ontology", lambda name: Ontology(_OneCallAtATime(name=f"{name}-tbox"))
    )
    one_by_one = parse_owl_functional(text).tbox
    assert isinstance(one_by_one, _OneCallAtATime)
    assert _state(batched) == _state(one_by_one)
