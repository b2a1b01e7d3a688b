"""Unit tests for the textual DL-Lite parser and serializer."""

import pytest

from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ConceptInclusion,
    ExistentialRole,
    FunctionalAttribute,
    FunctionalRole,
    InverseRole,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
    RoleInclusion,
    parse_axiom,
    parse_concept,
    parse_role,
    parse_tbox,
    serialize_tbox,
)
from repro.errors import SyntaxError_

A, B = AtomicConcept("A"), AtomicConcept("B")
P = AtomicRole("P")


def test_parse_simple_concept_inclusion():
    assert parse_axiom("A isa B") == ConceptInclusion(A, B)


def test_parse_unicode_alternates():
    assert parse_axiom("A ⊑ ∃P") == ConceptInclusion(A, ExistentialRole(P))
    assert parse_axiom("A ⊑ ¬B") == ConceptInclusion(A, NegatedConcept(B))


def test_parse_qualified_existential_with_inverse():
    axiom = parse_axiom("State isa exists isPartOf^- . County")
    assert axiom == ConceptInclusion(
        AtomicConcept("State"),
        QualifiedExistential(
            InverseRole(AtomicRole("isPartOf")), AtomicConcept("County")
        ),
    )


def test_parse_role_inclusion_by_inverse_marker():
    axiom = parse_axiom("P^- isa R")
    assert axiom == RoleInclusion(InverseRole(P), AtomicRole("R"))
    negated = parse_axiom("P^- isa not R^-")
    assert negated == RoleInclusion(
        InverseRole(P), NegatedRole(InverseRole(AtomicRole("R")))
    )


def test_parse_attribute_domain():
    axiom = parse_axiom("domain(salary) isa Employee")
    assert axiom == ConceptInclusion(
        AttributeDomain(AtomicAttribute("salary")), AtomicConcept("Employee")
    )


def test_parse_funct():
    assert parse_axiom("funct P") == FunctionalRole(P)
    assert parse_axiom("funct P^-") == FunctionalRole(InverseRole(P))


def test_negation_rejected_on_lhs():
    with pytest.raises(SyntaxError_):
        parse_axiom("not A isa B")


def test_trailing_garbage_rejected():
    with pytest.raises(SyntaxError_):
        parse_axiom("A isa B C")
    with pytest.raises(SyntaxError_):
        parse_concept("exists P . A B")


def test_parse_concept_and_role_standalone():
    assert parse_concept("exists P^-") == ExistentialRole(InverseRole(P))
    assert parse_role("P^-") == InverseRole(P)
    assert parse_role("P") == P


def test_declarations_disambiguate_bare_names():
    tbox = parse_tbox(
        """
        role worksFor
        attribute name
        Employee isa Person        # concepts by default
        worksFor isa memberOf      # role by declaration
        name isa label             # attribute by declaration
        """
    )
    kinds = {type(axiom).__name__ for axiom in tbox}
    assert kinds == {"ConceptInclusion", "RoleInclusion", "AttributeInclusion"}


def test_late_usage_disambiguates_earlier_lines():
    # 'R' is only revealed to be a role by the second line; the two-pass
    # parse must still type the first line as a role inclusion.
    tbox = parse_tbox("P isa R\nR^- isa S")
    assert all(isinstance(axiom, RoleInclusion) for axiom in tbox)


def test_conflicting_kinds_rejected():
    with pytest.raises(SyntaxError_):
        parse_tbox("concept P\nA isa exists P")  # P declared concept, used as role


def test_comments_and_blank_lines_ignored():
    tbox = parse_tbox("\n# comment only\nA isa B  # trailing\n\n")
    assert len(tbox) == 1


def test_serialize_round_trip(county_tbox):
    text = serialize_tbox(county_tbox)
    reparsed = parse_tbox(text)
    assert set(reparsed.axioms) == set(county_tbox.axioms)
    assert reparsed.signature == county_tbox.signature


def test_serialize_round_trip_with_attributes(university_tbox):
    reparsed = parse_tbox(serialize_tbox(university_tbox))
    assert set(reparsed.axioms) == set(university_tbox.axioms)
    assert reparsed.signature == university_tbox.signature


def test_funct_attribute_via_declaration():
    tbox = parse_tbox("attribute salary\nfunct salary")
    assert FunctionalAttribute(AtomicAttribute("salary")) in tbox


def test_note_lines_annotate_next_axiom():
    tbox = parse_tbox(
        """
        role isPartOf
        note: Figure 2 idiom — counties sit inside states.
        County isa exists isPartOf . State
        Municipality isa County
        """
    )
    qualified = parse_axiom("County isa exists isPartOf . State")
    plain = parse_axiom("Municipality isa County")
    assert tbox.annotation(qualified) == "Figure 2 idiom — counties sit inside states."
    assert tbox.annotation(plain) is None


def test_notes_round_trip_through_serialization():
    tbox = parse_tbox("note: keep!\nA isa B\nB isa C")
    reparsed = parse_tbox(serialize_tbox(tbox))
    assert reparsed.annotation(parse_axiom("A isa B")) == "keep!"
    assert reparsed.annotation(parse_axiom("B isa C")) is None
