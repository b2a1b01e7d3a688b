"""Unit tests for the TBox container and Signature."""

import pytest

from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    FunctionalRole,
    NegatedConcept,
    QualifiedExistential,
    RoleInclusion,
    Signature,
    TBox,
)

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
P = AtomicRole("P")


def test_add_tracks_signature_incrementally():
    tbox = TBox()
    tbox.add(ConceptInclusion(A, B))
    assert A in tbox.signature and B in tbox.signature
    assert len(tbox.signature.concepts) == 2
    tbox.add(RoleInclusion(P, AtomicRole("R")))
    assert len(tbox.signature.roles) == 2


def test_add_deduplicates_and_reports():
    tbox = TBox()
    assert tbox.add(ConceptInclusion(A, B)) is True
    assert tbox.add(ConceptInclusion(A, B)) is False
    assert len(tbox) == 1
    assert tbox.extend([ConceptInclusion(A, B), ConceptInclusion(B, C)]) == 1


def test_declare_without_axioms():
    tbox = TBox()
    tbox.declare(AtomicConcept("Lonely"))
    tbox.declare(AtomicAttribute("u"))
    assert AtomicConcept("Lonely") in tbox.signature
    assert len(tbox) == 0
    with pytest.raises(TypeError):
        tbox.declare("Lonely")


def test_positive_and_negative_partition():
    tbox = TBox(
        [
            ConceptInclusion(A, B),
            ConceptInclusion(A, NegatedConcept(C)),
            FunctionalRole(P),
        ]
    )
    assert len(tbox.positive_inclusions) == 1
    assert len(tbox.negative_inclusions) == 1
    assert len(tbox.functionality_assertions) == 1


def test_qualified_existentials_iterator():
    qualified = ConceptInclusion(A, QualifiedExistential(P, B))
    tbox = TBox([qualified, ConceptInclusion(A, B)])
    found = list(tbox.qualified_existentials())
    assert found == [(qualified, qualified.rhs)]


def test_discard_keeps_signature():
    axiom = ConceptInclusion(A, B)
    tbox = TBox([axiom])
    assert tbox.discard(axiom) is True
    assert tbox.discard(axiom) is False
    assert len(tbox) == 0
    assert A in tbox.signature  # signature deliberately untouched


def test_copy_is_independent():
    tbox = TBox([ConceptInclusion(A, B)], name="orig")
    clone = tbox.copy(name="clone")
    clone.add(ConceptInclusion(B, C))
    assert len(tbox) == 1 and len(clone) == 2
    assert clone.name == "clone"


def test_stats_shape(university_tbox):
    stats = university_tbox.stats()
    assert stats["axioms"] == len(university_tbox)
    assert stats["roles"] == 2
    assert stats["attributes"] == 1
    assert stats["functionality"] == 1
    assert stats["negative_inclusions"] == 1
    assert (
        stats["concept_inclusions"]
        + stats["role_inclusions"]
        + stats["attribute_inclusions"]
        + stats["functionality"]
        == stats["axioms"]
    )


def test_signature_iteration_is_deterministic():
    signature = Signature(
        concepts=[B, A, C], roles=[AtomicRole("Z"), P], attributes=[]
    )
    names = [item.name for item in signature]
    assert names == ["A", "B", "C", "P", "Z"]


def test_add_rejects_non_axiom():
    with pytest.raises(TypeError):
        TBox().add("A isa B")


def test_annotations_attach_and_copy():
    axiom = ConceptInclusion(A, B)
    tbox = TBox([axiom])
    tbox.annotate(axiom, "told by the domain expert")
    assert tbox.annotation(axiom) == "told by the domain expert"
    assert tbox.annotation(ConceptInclusion(B, C)) is None
    clone = tbox.copy()
    assert clone.annotation(axiom) == "told by the domain expert"
    with pytest.raises(KeyError):
        tbox.annotate(ConceptInclusion(B, C), "not an axiom of this TBox")


# -- batches -----------------------------------------------------------------------


def _axioms():
    return [
        ConceptInclusion(A, B),
        ConceptInclusion(B, QualifiedExistential(P, C)),
        RoleInclusion(P, AtomicRole("R")),
        ConceptInclusion(A, B),  # a duplicate
        FunctionalRole(P),
        ConceptInclusion(C, NegatedConcept(A)),
    ]


def test_a_held_signature_set_survives_a_batch():
    tbox = TBox([ConceptInclusion(A, B)])
    held = tbox.signature.concepts
    before = set(held)
    tbox.extend([ConceptInclusion(AtomicConcept(f"N{i}"), A) for i in range(5)])
    tbox.declare(*(AtomicConcept(f"D{i}") for i in range(5)))
    assert held == before
    assert len(tbox.signature.concepts) == len(before) + 10


class _CountingSignature(Signature):
    """Counts how often each set is replaced."""

    def __init__(self):
        self.replaced = {"concepts": 0, "roles": 0, "attributes": 0}
        super().__init__()

    def __setattr__(self, name, value):
        if name in ("concepts", "roles", "attributes") and hasattr(self, name):
            self.replaced[name] += 1
        super().__setattr__(name, value)


def test_a_batch_replaces_each_set_once():
    concepts = [AtomicConcept(f"N{i}") for i in range(20)]
    declared = TBox()
    declared.signature = _CountingSignature()
    declared.declare(*concepts, AtomicRole("R"))
    assert declared.signature.replaced == {"concepts": 1, "roles": 1, "attributes": 0}
    assert declared.generation == 21

    extended = TBox()
    extended.signature = _CountingSignature()
    extended.extend(ConceptInclusion(concept, A) for concept in concepts)
    assert extended.signature.replaced == {"concepts": 1, "roles": 0, "attributes": 0}
    assert extended.signature.concepts == {A, *concepts}


def test_batches_count_generations_like_single_steps():
    one_by_one = TBox()
    for axiom in _axioms():
        one_by_one.add(axiom)
    built = TBox(_axioms())
    assert list(built) == list(one_by_one)
    assert built.signature == one_by_one.signature
    assert built.generation == one_by_one.generation == 5
    assert TBox().extend(_axioms()) == 5

    predicates = [A, B, A, P, AtomicAttribute("U"), P]
    single = TBox([ConceptInclusion(A, C)])
    for predicate in predicates:
        single.declare(predicate)
    batch = TBox([ConceptInclusion(A, C)])
    batch.declare(*predicates)
    assert batch.signature == single.signature
    assert batch.generation == single.generation == 1 + 3


def test_copy_counts_one_add_per_axiom():
    tbox = TBox(_axioms(), name="orig")
    tbox.declare(AtomicConcept("Declared"), AtomicAttribute("U"))
    clone = tbox.copy()
    assert list(clone) == list(tbox)
    assert clone.signature == tbox.signature
    assert clone.signature.concepts is not tbox.signature.concepts
    assert clone.generation == len(tbox) == 5


def test_a_bad_batch_changes_nothing():
    tbox = TBox([ConceptInclusion(A, B)])
    with pytest.raises(TypeError):
        tbox.extend([ConceptInclusion(B, C), "B isa C"])
    with pytest.raises(TypeError):
        tbox.declare(C, "C")
    assert len(tbox) == 1 and C not in tbox.signature and tbox.generation == 1
