"""The TBox container: a finite set of DL-Lite axioms plus its signature.

In OBDA (paper §4) the TBox is the only intensional component of the
ontology: instance data come from the sources through mappings, so the
TBox object is the unit every reasoning service in :mod:`repro.core`
operates on.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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
    QualifiedExistential,
)

__all__ = ["Signature", "TBox"]


class Signature:
    """The alphabet Σ of an ontology: atomic concepts, roles and attributes."""

    def __init__(
        self,
        concepts: Iterable[AtomicConcept] = (),
        roles: Iterable[AtomicRole] = (),
        attributes: Iterable[AtomicAttribute] = (),
    ):
        self.concepts: Set[AtomicConcept] = set(concepts)
        self.roles: Set[AtomicRole] = set(roles)
        self.attributes: Set[AtomicAttribute] = set(attributes)

    def add(self, predicate) -> None:
        """Add one predicate: a batch of one (:meth:`update`)."""
        self.update((predicate,))

    def update(self, predicates: Iterable) -> int:
        """Add many predicates; return how many were new.

        Copy-on-write: readers (digraph build, fingerprinting) iterate
        whichever set object they grabbed, never one mutating under them.
        Each set that gains a predicate is replaced once per batch, so a
        batch costs its own size plus one copy per set instead of one copy
        per new predicate.  Writers are serialized by the owning TBox's
        lock.
        """
        concepts: Set[AtomicConcept] = set()
        roles: Set[AtomicRole] = set()
        attributes: Set[AtomicAttribute] = set()
        for predicate in predicates:
            if isinstance(predicate, AtomicConcept):
                concepts.add(predicate)
            elif isinstance(predicate, AtomicRole):
                roles.add(predicate)
            elif isinstance(predicate, AtomicAttribute):
                attributes.add(predicate)
            else:
                raise TypeError(f"not an atomic predicate: {predicate!r}")
        # ``new - current`` walks the batch, not the signature
        concepts = concepts - self.concepts
        roles = roles - self.roles
        attributes = attributes - self.attributes
        if concepts:
            self.concepts = self.concepts | concepts
        if roles:
            self.roles = self.roles | roles
        if attributes:
            self.attributes = self.attributes | attributes
        return len(concepts) + len(roles) + len(attributes)

    def __contains__(self, predicate) -> bool:
        return (
            predicate in self.concepts
            or predicate in self.roles
            or predicate in self.attributes
        )

    def __len__(self) -> int:
        return len(self.concepts) + len(self.roles) + len(self.attributes)

    def __iter__(self):
        yield from sorted(self.concepts, key=lambda c: c.name)
        yield from sorted(self.roles, key=lambda r: r.name)
        yield from sorted(self.attributes, key=lambda a: a.name)

    def copy(self) -> "Signature":
        return Signature(self.concepts, self.roles, self.attributes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.concepts == other.concepts
            and self.roles == other.roles
            and self.attributes == other.attributes
        )

    def __repr__(self) -> str:
        return (
            f"Signature({len(self.concepts)} concepts, "
            f"{len(self.roles)} roles, {len(self.attributes)} attributes)"
        )


class TBox:
    """A DL-Lite TBox: an ordered, duplicate-free collection of axioms.

    The TBox tracks its signature incrementally.  Predicates can also be
    *declared* without appearing in any axiom (``declare``), matching OWL
    declarations — classification must report those as root/leaf predicates
    too, which is why the signature is not derived purely from axioms.
    """

    def __init__(self, axioms: Iterable[Axiom] = (), name: str = "tbox"):
        self.name = name
        self._axioms: List[Axiom] = []
        self._seen: Set[Axiom] = set()
        #: serializes mutations (axiom add/discard, declarations) so the
        #: generation bump and the structural change it reports are one
        #: atomic step even under concurrent writers.
        self._lock = threading.RLock()
        #: mutation counter — bumped by every change to axioms or the
        #: declared signature, so fingerprint-keyed caches (classification
        #: memoization, rewriting caches) can detect TBox change cheaply.
        self._generation = 0
        self.signature = Signature()
        #: free-text design notes attached to axioms (workflow step (i):
        #: the graphical design "can be enriched with auxiliary
        #: documentation regarding the design choices that were made").
        self._annotations: Dict[Axiom, str] = {}
        self.extend(axioms)

    # -- annotations ---------------------------------------------------------

    def annotate(self, axiom: Axiom, note: str) -> None:
        """Attach a design note to an axiom of this TBox."""
        if axiom not in self._seen:
            raise KeyError(f"axiom not in TBox: {axiom}")
        self._annotations[axiom] = note

    def annotation(self, axiom: Axiom) -> Optional[str]:
        """The design note attached to *axiom*, if any."""
        return self._annotations.get(axiom)

    @property
    def annotations(self) -> Dict[Axiom, str]:
        return dict(self._annotations)

    # -- construction -------------------------------------------------------

    def add(self, axiom: Axiom) -> bool:
        """Add *axiom*; return False when it was already present."""
        return self.extend((axiom,)) == 1

    def extend(self, axioms: Iterable[Axiom]) -> int:
        """Add many axioms; return how many were new.

        One step under the lock: the new axioms are appended, the
        signature grows once for the batch (:meth:`Signature.update`),
        and the generation is bumped last, by one per new axiom.
        """
        axioms = list(axioms)
        for axiom in axioms:
            if not isinstance(axiom, Axiom):
                raise TypeError(f"not a TBox axiom: {axiom!r}")
        with self._lock:
            new: List[Axiom] = []
            for axiom in axioms:
                if axiom not in self._seen:
                    self._seen.add(axiom)
                    new.append(axiom)
            self._axioms.extend(new)
            self.signature.update(
                predicate for axiom in new for predicate in axiom_signature(axiom)
            )
            # Bumped last: a reader seeing the new generation is
            # guaranteed to also see the axioms and signature change.
            self._generation += len(new)
        return len(new)

    def declare(self, *predicates) -> None:
        """Declare atomic predicates without asserting any axiom on them.

        The signature grows once for the batch; the generation is bumped
        by one per predicate it did not hold yet.
        """
        with self._lock:
            self._generation += self.signature.update(predicates)

    def discard(self, axiom: Axiom) -> bool:
        """Remove *axiom* if present (the signature is left untouched)."""
        with self._lock:
            if axiom not in self._seen:
                return False
            self._seen.discard(axiom)
            # Copy-on-write removal: readers iterating the old list keep a
            # consistent snapshot; in-place .remove() would shift items
            # under a concurrent iterator.
            axioms = list(self._axioms)
            axioms.remove(axiom)
            self._axioms = axioms
            self._generation += 1
        return True

    @property
    def generation(self) -> int:
        """Monotone mutation counter (see :mod:`repro.perf.fingerprint`)."""
        return self._generation

    # -- inspection ----------------------------------------------------------

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self._axioms)

    def __len__(self) -> int:
        return len(self._axioms)

    def __contains__(self, axiom: Axiom) -> bool:
        return axiom in self._seen

    @property
    def axioms(self) -> Tuple[Axiom, ...]:
        with self._lock:
            return tuple(self._axioms)

    @property
    def concept_inclusions(self) -> List[ConceptInclusion]:
        return [a for a in self._axioms if isinstance(a, ConceptInclusion)]

    @property
    def role_inclusions(self) -> List[RoleInclusion]:
        return [a for a in self._axioms if isinstance(a, RoleInclusion)]

    @property
    def attribute_inclusions(self) -> List[AttributeInclusion]:
        return [a for a in self._axioms if isinstance(a, AttributeInclusion)]

    @property
    def functionality_assertions(self) -> List[Axiom]:
        return [
            a
            for a in self._axioms
            if isinstance(a, (FunctionalRole, FunctionalAttribute))
        ]

    @property
    def positive_inclusions(self) -> List[Axiom]:
        """The PIs of the TBox — the paper's Φ_T is computed from these only."""
        return [a for a in self._axioms if a.is_positive]

    @property
    def negative_inclusions(self) -> List[Axiom]:
        """The NIs (disjointness axioms) — input of ``computeUnsat``."""
        return [a for a in self._axioms if a.is_negative]

    def qualified_existentials(self) -> Iterator[Tuple[ConceptInclusion, QualifiedExistential]]:
        """Yield every PI whose right-hand side is a qualified existential."""
        for axiom in self._axioms:
            if isinstance(axiom, ConceptInclusion) and isinstance(
                axiom.rhs, QualifiedExistential
            ):
                yield axiom, axiom.rhs

    def copy(self, name: Optional[str] = None) -> "TBox":
        """An independent TBox with the same axioms, signature and notes;
        its generation counts one :meth:`add` per axiom."""
        clone = TBox(name=name or self.name)
        with self._lock:
            clone._axioms = list(self._axioms)
            clone._seen = set(self._seen)
            clone.signature = self.signature.copy()
            clone._annotations = dict(self._annotations)
        clone._generation = len(clone._axioms)
        return clone

    def stats(self) -> Dict[str, int]:
        """Size statistics, used by the corpus profiles and the benchmarks."""
        with self._lock:
            return {
                "concepts": len(self.signature.concepts),
                "roles": len(self.signature.roles),
                "attributes": len(self.signature.attributes),
                "axioms": len(self._axioms),
                "positive_inclusions": len(self.positive_inclusions),
                "negative_inclusions": len(self.negative_inclusions),
                "concept_inclusions": len(self.concept_inclusions),
                "role_inclusions": len(self.role_inclusions),
                "attribute_inclusions": len(self.attribute_inclusions),
                "functionality": len(self.functionality_assertions),
            }

    def __repr__(self) -> str:
        return f"TBox({self.name!r}, {len(self)} axioms, {self.signature!r})"
