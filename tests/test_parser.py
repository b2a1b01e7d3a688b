"""Unit tests for the textual DL-Lite parser and serializer."""

import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    AttributeInclusion,
    ConceptInclusion,
    ExistentialRole,
    FunctionalAttribute,
    FunctionalRole,
    InverseRole,
    NegatedAttribute,
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
from repro.dllite.parser import _KindRegistry
from repro.dllite.tbox import TBox
from repro.errors import LanguageViolation, ReproError, SyntaxError_
from repro.testkit import FuzzProfile, random_profile_tbox, random_tiny_tbox

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
    # 'R' is only revealed to be a role by the second line; the parse
    # must still type the first line as a role inclusion.
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


# -- funct names typed by later lines ------------------------------------------------


def test_funct_before_the_line_that_reveals_an_attribute():
    U = AtomicAttribute("U")
    for text in ("funct U\nA isa domain(U)", "A isa domain(U)\nfunct U"):
        tbox = parse_tbox(text)
        assert FunctionalAttribute(U) in tbox, text
        assert tbox.signature.attributes == {U}
        assert not tbox.signature.roles


def test_funct_before_an_inverse_stays_a_functional_role():
    tbox = parse_tbox("funct P\nP^- isa R")
    assert list(tbox) == [
        FunctionalRole(P),
        RoleInclusion(InverseRole(P), AtomicRole("R")),
    ]


def test_funct_on_a_declared_concept_is_rejected():
    for text in ("concept C\nfunct C", "funct C\nconcept C"):
        with pytest.raises(SyntaxError_):
            parse_tbox(text)


def test_a_later_declaration_types_an_earlier_negated_name():
    tbox = parse_tbox("P^- isa not X\nrole X")
    assert list(tbox) == [
        RoleInclusion(InverseRole(P), NegatedRole(AtomicRole("X")))
    ]


@pytest.mark.parametrize(
    "text",
    [
        "role P\nP isa not X",
        # X typed a role on a later line, by declaration or by use
        "role P\nP isa not X\nrole X",
        "role P\nP isa not X\nA isa exists X",
    ],
)
def test_a_negated_bare_name_on_a_role_inclusion_is_a_role(text):
    tbox = parse_tbox(text)
    assert list(tbox)[0] == RoleInclusion(P, NegatedRole(AtomicRole("X")))
    assert AtomicRole("X") in tbox.signature.roles
    assert AtomicConcept("X") not in tbox.signature.concepts


def test_a_negated_bare_name_on_an_attribute_inclusion_is_an_attribute():
    tbox = parse_tbox("attribute U\nU isa not V")
    assert list(tbox) == [
        AttributeInclusion(AtomicAttribute("U"), NegatedAttribute(AtomicAttribute("V")))
    ]
    assert AtomicAttribute("V") in tbox.signature.attributes


# -- differential: the single pass against the two full passes it replaced ----------


def reference_parse_tbox(text, name="tbox"):
    """The two-pass ``parse_tbox``: every declaration registered first,
    then every axiom line parsed twice, the second time with the kinds
    the first pass gave every name."""
    registry = _KindRegistry()
    pending, notes, pending_note, declared = [], {}, [], []
    for raw_line in text.splitlines():
        stripped = raw_line.strip()
        if stripped.startswith("note:"):
            pending_note.append(stripped[len("note:"):].strip())
            continue
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        first_word = line.split(None, 1)[0]
        if first_word in ("concept", "role", "attribute"):
            for name_part in line[len(first_word):].split(","):
                name_part = name_part.strip()
                if not name_part:
                    continue
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_'-]*", name_part):
                    raise SyntaxError_(f"bad declared name {name_part!r}", line)
                registry.declare(name_part, first_word, line)
                declared.append((first_word, name_part))
            continue
        if pending_note:
            notes[len(pending)] = " ".join(pending_note)
            pending_note = []
        pending.append(line)
    tbox = TBox(name=name)
    kinds = {"concept": AtomicConcept, "role": AtomicRole, "attribute": AtomicAttribute}
    for kind, predicate_name in declared:
        tbox.declare(kinds[kind](predicate_name))
    for _ in range(2):
        axioms = [parse_axiom(line, registry) for line in pending]
    for axiom in axioms:
        tbox.add(axiom)
    for index, note in notes.items():
        tbox.annotate(axioms[index], note)
    return tbox


def _drawn_tbox(seed):
    """A seeded testkit TBox with functionality assertions and notes."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        tbox = random_tiny_tbox(rng, FuzzProfile(tiny_axioms=10, tiny_roles=2))
    else:
        tbox = random_profile_tbox(rng, FuzzProfile(max_concepts=12, max_roles=3))
    for role in sorted(tbox.signature.roles, key=lambda r: r.name):
        if rng.random() < 0.4:
            tbox.add(FunctionalRole(InverseRole(role) if rng.random() < 0.5 else role))
    for attribute in sorted(tbox.signature.attributes, key=lambda a: a.name):
        if rng.random() < 0.6:
            tbox.add(FunctionalAttribute(attribute))
    for index, axiom in enumerate(list(tbox)):
        if rng.random() < 0.2:
            tbox.annotate(axiom, f"note {index}")
    return tbox


def _document(tbox, rng):
    """``serialize_tbox`` output with declarations dropped at random and
    the lines shuffled, each note kept on the line it annotates."""
    units, note = [], []
    for line in serialize_tbox(tbox).splitlines():
        if line.startswith("note:"):
            note.append(line)
            continue
        first_word = line.split(None, 1)[0]
        if first_word in ("concept", "role", "attribute"):
            for name in line[len(first_word):].split(","):
                if rng.random() < 0.6:
                    units.append([f"{first_word} {name.strip()}"])
            continue
        units.append(note + [line])
        note = []
    rng.shuffle(units)
    return "\n".join(line for unit in units for line in unit) + "\n"


def _outcome(parse, text):
    try:
        tbox = parse(text)
    except ReproError as error:
        return error
    return (list(tbox), tbox.signature, tbox.annotations, tbox.generation)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_single_pass_matches_the_two_pass_reference(tbox_seed, shuffle_seed):
    text = _document(_drawn_tbox(tbox_seed), random.Random(shuffle_seed))
    expected = _outcome(reference_parse_tbox, text)
    actual = _outcome(parse_tbox, text)
    if not isinstance(expected, ReproError):
        assert actual == expected
        return
    if isinstance(actual, ReproError):
        # Both reject it; the first fault each meets may differ (a
        # ``funct`` conflict the reference meets early can hide a line
        # that is no DL-Lite axiom under the document's kinds).
        assert isinstance(actual, (SyntaxError_, LanguageViolation))
        return
    # The reference rejects documents where a bare name is read before the
    # line that types it: `funct U` before `domain(U)`, or a negated name
    # on the right of a role inclusion before the line that makes it a
    # role.  With every name declared up front, with the kind the single
    # pass gave it, the reference reads them as the single pass does.  A
    # name that inclusions coerce into two kinds (`U1 isa U0` with U1 a
    # role, `U2 isa U0` with U2 an attribute) is typed by neither parser,
    # so it stays undeclared.
    axioms, signature, annotations, _ = actual
    kinds = {}
    for kind, predicates in (
        ("concept", signature.concepts),
        ("role", signature.roles),
        ("attribute", signature.attributes),
    ):
        for predicate in predicates:
            kinds.setdefault(predicate.name, []).append(kind)
    declarations = "".join(
        f"{used[0]} {name}\n" for name, used in sorted(kinds.items()) if len(used) == 1
    )
    typed = reference_parse_tbox(declarations + text)
    assert (list(typed), typed.signature, typed.annotations) == (
        axioms, signature, annotations
    )
