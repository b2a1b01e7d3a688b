"""Model-theoretic semantics of DL-Lite and a brute-force entailment oracle.

This module is a *test substrate*: it implements the standard FOL
semantics of DL-Lite (paper §4, "the formal semantics ... is given in the
standard way") directly, by enumerating finite interpretations.  DL-Lite_R
enjoys the finite-model property, so for the tiny signatures used in the
property-based tests a bounded countermodel search is a sound — and, at
the sizes we use, practically complete — oracle against which the
graph-based classifier and the saturation baseline are cross-checked.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
    RoleInclusion,
    axiom_signature,
)
from .syntax import (
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
from .tbox import TBox

__all__ = ["Interpretation", "entails", "find_countermodel", "is_satisfiable_concept"]

_VALUES = (0, 1)  # tiny value domain for attributes


class Interpretation:
    """A finite interpretation over domain ``{0, ..., size-1}``."""

    def __init__(
        self,
        size: int,
        concepts: Dict[AtomicConcept, FrozenSet[int]],
        roles: Dict[AtomicRole, FrozenSet[Tuple[int, int]]],
        attributes: Optional[Dict[AtomicAttribute, FrozenSet[Tuple[int, int]]]] = None,
    ):
        self.size = size
        self.domain = range(size)
        self.concepts = concepts
        self.roles = roles
        self.attributes = attributes or {}

    # -- extensions -----------------------------------------------------------

    def role_ext(self, role) -> Set[Tuple[int, int]]:
        if isinstance(role, AtomicRole):
            return set(self.roles.get(role, frozenset()))
        if isinstance(role, InverseRole):
            return {(b, a) for a, b in self.roles.get(role.role, frozenset())}
        raise TypeError(f"not a basic role: {role!r}")

    def concept_ext(self, concept) -> Set[int]:
        if isinstance(concept, AtomicConcept):
            return set(self.concepts.get(concept, frozenset()))
        if isinstance(concept, ExistentialRole):
            return {a for a, _ in self.role_ext(concept.role)}
        if isinstance(concept, QualifiedExistential):
            filler = self.concept_ext(concept.filler)
            return {a for a, b in self.role_ext(concept.role) if b in filler}
        if isinstance(concept, AttributeDomain):
            return {a for a, _ in self.attributes.get(concept.attribute, frozenset())}
        if isinstance(concept, NegatedConcept):
            return set(self.domain) - self.concept_ext(concept.concept)
        raise TypeError(f"not a concept: {concept!r}")

    # -- satisfaction ----------------------------------------------------------

    def satisfies(self, axiom: Axiom) -> bool:
        if isinstance(axiom, ConceptInclusion):
            return self.concept_ext(axiom.lhs) <= self.concept_ext(axiom.rhs)
        if isinstance(axiom, RoleInclusion):
            lhs = self.role_ext(axiom.lhs)
            if isinstance(axiom.rhs, NegatedRole):
                return not (lhs & self.role_ext(axiom.rhs.role))
            return lhs <= self.role_ext(axiom.rhs)
        if isinstance(axiom, AttributeInclusion):
            lhs = set(self.attributes.get(axiom.lhs, frozenset()))
            if isinstance(axiom.rhs, NegatedAttribute):
                return not (lhs & set(self.attributes.get(axiom.rhs.attribute, frozenset())))
            return lhs <= set(self.attributes.get(axiom.rhs, frozenset()))
        if isinstance(axiom, FunctionalRole):
            pairs = self.role_ext(axiom.role)
            subjects = [a for a, _ in pairs]
            return len(subjects) == len(set(subjects))
        if isinstance(axiom, FunctionalAttribute):
            pairs = self.attributes.get(axiom.attribute, frozenset())
            subjects = [a for a, _ in pairs]
            return len(subjects) == len(set(subjects))
        raise TypeError(f"not an axiom: {axiom!r}")

    def is_model_of(self, tbox: TBox) -> bool:
        return all(self.satisfies(axiom) for axiom in tbox)


def _all_subsets(universe: List) -> Iterator[FrozenSet]:
    for mask in range(1 << len(universe)):
        yield frozenset(
            element for index, element in enumerate(universe) if mask >> index & 1
        )


def interpretations(
    tbox: TBox, size: int
) -> Iterator[Interpretation]:
    """Enumerate every interpretation of *tbox*'s signature over ``size`` elements.

    Exponential — intended for signatures of at most ~4 predicates and
    domains of at most 3 elements (property-based test scale).
    """
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    roles = sorted(tbox.signature.roles, key=lambda r: r.name)
    attributes = sorted(tbox.signature.attributes, key=lambda a: a.name)
    domain = list(range(size))
    pairs = [(a, b) for a in domain for b in domain]
    value_pairs = [(a, v) for a in domain for v in _VALUES]

    concept_choices = [list(_all_subsets(domain)) for _ in concepts]
    role_choices = [list(_all_subsets(pairs)) for _ in roles]
    attr_choices = [list(_all_subsets(value_pairs)) for _ in attributes]

    for concept_exts in itertools.product(*concept_choices) if concepts else [()]:
        for role_exts in itertools.product(*role_choices) if roles else [()]:
            for attr_exts in itertools.product(*attr_choices) if attributes else [()]:
                yield Interpretation(
                    size,
                    dict(zip(concepts, concept_exts)),
                    dict(zip(roles, role_exts)),
                    dict(zip(attributes, attr_exts)),
                )


def _models(
    tbox: TBox, size: int, refuted: Optional[Axiom] = None
) -> Iterator[Interpretation]:
    """The models of *tbox* over ``size`` elements that violate *refuted*
    (if given), in the order :func:`interpretations` yields them.

    A depth-first search over the predicates in that order: every axiom
    is checked as soon as its last predicate has an extension (its truth
    depends on nothing else), and a partial interpretation that fails a
    check is not extended.
    """
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    roles = sorted(tbox.signature.roles, key=lambda r: r.name)
    attributes = sorted(tbox.signature.attributes, key=lambda a: a.name)
    domain = list(range(size))
    pairs = [(a, b) for a in domain for b in domain]
    value_pairs = [(a, v) for a in domain for v in _VALUES]
    current = Interpretation(size, {}, {}, {})
    slots = (
        [(concept, current.concepts, list(_all_subsets(domain))) for concept in concepts]
        + [(role, current.roles, list(_all_subsets(pairs))) for role in roles]
        + [
            (attribute, current.attributes, list(_all_subsets(value_pairs)))
            for attribute in attributes
        ]
    )
    position = {predicate: index for index, (predicate, _, _) in enumerate(slots)}
    # due[k]: the (axiom, must hold) checks decided once slots 0..k-1 are set
    due: List[List[Tuple[Axiom, bool]]] = [[] for _ in range(len(slots) + 1)]
    checks = [(axiom, True) for axiom in tbox]
    if refuted is not None:
        checks.append((refuted, False))
    for axiom, holds in checks:
        last = max(
            (position[p] for p in axiom_signature(axiom) if p in position), default=-1
        )
        due[last + 1].append((axiom, holds))

    def extend(filled: int) -> Iterator[Interpretation]:
        for axiom, holds in due[filled]:
            if current.satisfies(axiom) != holds:
                return
        if filled == len(slots):
            yield Interpretation(
                size, dict(current.concepts), dict(current.roles), dict(current.attributes)
            )
            return
        predicate, table, choices = slots[filled]
        for extension in choices:
            table[predicate] = extension
            yield from extend(filled + 1)
        del table[predicate]

    return extend(0)


def find_countermodel(
    tbox: TBox, axiom: Axiom, max_domain: int = 2
) -> Optional[Interpretation]:
    """Search for a model of *tbox* violating *axiom* with domain ≤ *max_domain*.

    Returns the first such interpretation in :func:`interpretations` order.
    """
    for size in range(1, max_domain + 1):
        for interpretation in _models(tbox, size, refuted=axiom):
            return interpretation
    return None


def entails(tbox: TBox, axiom: Axiom, max_domain: int = 2) -> bool:
    """Bounded-model entailment check: True iff no countermodel of size ≤ bound.

    Sound for refuting entailment (a countermodel is definitive); complete
    only up to the domain bound — callers in the test-suite keep signatures
    tiny so the bound suffices in practice.
    """
    return find_countermodel(tbox, axiom, max_domain) is None


def is_satisfiable_concept(tbox: TBox, concept, max_domain: int = 2) -> bool:
    """True iff some model of *tbox* (domain ≤ bound) gives *concept* an instance."""
    for size in range(1, max_domain + 1):
        for interpretation in _models(tbox, size):
            if interpretation.concept_ext(concept):
                return True
    return False
