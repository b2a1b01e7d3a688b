"""ABox assertions and the ABox container.

In a full OBDA deployment the ABox is *virtual* — it is the image of the
source database under the mappings (:mod:`repro.obda.mapping`).  The same
container is used both for explicitly-authored extensional data (tests,
examples) and for materialized virtual ABoxes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Set, Tuple, Union

from .syntax import AtomicAttribute, AtomicConcept, AtomicRole

__all__ = [
    "Individual",
    "ConceptAssertion",
    "RoleAssertion",
    "AttributeAssertion",
    "Assertion",
    "ABox",
]


@dataclass(frozen=True)
class Individual:
    """A named individual constant."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConceptAssertion:
    """``A(a)`` — membership of an individual in an atomic concept."""

    concept: AtomicConcept
    individual: Individual

    def __str__(self) -> str:
        return f"{self.concept}({self.individual})"


@dataclass(frozen=True)
class RoleAssertion:
    """``P(a, b)`` — a role link between two individuals."""

    role: AtomicRole
    subject: Individual
    object: Individual

    def __str__(self) -> str:
        return f"{self.role}({self.subject}, {self.object})"


@dataclass(frozen=True)
class AttributeAssertion:
    """``U(a, v)`` — an attribute value (``v`` is a Python literal)."""

    attribute: AtomicAttribute
    subject: Individual
    value: Union[str, int, float, bool]

    def __str__(self) -> str:
        return f"{self.attribute}({self.subject}, {self.value!r})"


Assertion = Union[ConceptAssertion, RoleAssertion, AttributeAssertion]


class ABox:
    """A set of membership assertions with per-predicate indexes."""

    def __init__(self, assertions: Iterable[Assertion] = ()):
        self._assertions: Set[Assertion] = set()
        self._concept_index: Dict[AtomicConcept, Set[Individual]] = {}
        self._role_index: Dict[AtomicRole, Set[Tuple[Individual, Individual]]] = {}
        self._attribute_index: Dict[AtomicAttribute, Set[Tuple[Individual, object]]] = {}
        #: serializes writers; readers stay lock-free because every index
        #: bucket is replaced copy-on-write, never mutated in place.
        self._lock = threading.RLock()
        #: mutation counter; extent/index caches key their validity on it
        self._generation = 0
        for assertion in assertions:
            self.add(assertion)

    @property
    def generation(self) -> int:
        """Monotone mutation counter (cache invalidation hook)."""
        return self._generation

    def add(self, assertion: Assertion) -> bool:
        if isinstance(assertion, ConceptAssertion):
            index, key, value = (
                self._concept_index,
                assertion.concept,
                assertion.individual,
            )
        elif isinstance(assertion, RoleAssertion):
            index, key, value = (
                self._role_index,
                assertion.role,
                (assertion.subject, assertion.object),
            )
        elif isinstance(assertion, AttributeAssertion):
            index, key, value = (
                self._attribute_index,
                assertion.attribute,
                (assertion.subject, assertion.value),
            )
        else:
            raise TypeError(f"not an ABox assertion: {assertion!r}")
        with self._lock:
            if assertion in self._assertions:
                return False
            self._assertions.add(assertion)
            # Copy-on-write bucket replacement: a concurrent reader
            # iterating the old bucket sees a consistent snapshot instead
            # of a set changing size mid-iteration.
            index[key] = index.get(key, frozenset()) | {value}
            # Bumped last, so a reader observing the new generation also
            # observes the assertion it reports.
            self._generation += 1
        return True

    def extend(self, assertions: Iterable[Assertion]) -> int:
        return sum(1 for assertion in assertions if self.add(assertion))

    # -- lookups used by query evaluation -----------------------------------

    def concept_instances(self, concept: AtomicConcept) -> Set[Individual]:
        return self._concept_index.get(concept, set())

    def role_pairs(self, role: AtomicRole) -> Set[Tuple[Individual, Individual]]:
        return self._role_index.get(role, set())

    def attribute_pairs(self, attribute: AtomicAttribute) -> Set[Tuple[Individual, object]]:
        return self._attribute_index.get(attribute, set())

    def individuals(self) -> Set[Individual]:
        """Every individual mentioned anywhere in the ABox."""
        result: Set[Individual] = set()
        with self._lock:  # dict iteration vs concurrent new-key insertion
            concept_buckets = list(self._concept_index.values())
            role_buckets = list(self._role_index.values())
            attribute_buckets = list(self._attribute_index.values())
        for members in concept_buckets:
            result.update(members)
        for pairs in role_buckets:
            for subject, object_ in pairs:
                result.add(subject)
                result.add(object_)
        for pairs in attribute_buckets:
            for subject, _ in pairs:
                result.add(subject)
        return result

    def __iter__(self) -> Iterator[Assertion]:
        # Snapshot under the writer lock: iterating the live set while a
        # concurrent add() resizes it would raise RuntimeError.
        with self._lock:
            return iter(list(self._assertions))

    def __len__(self) -> int:
        return len(self._assertions)

    def __contains__(self, assertion: Assertion) -> bool:
        return assertion in self._assertions

    def copy(self) -> "ABox":
        with self._lock:
            return ABox(list(self._assertions))

    def __repr__(self) -> str:
        return f"ABox({len(self)} assertions)"
