"""Logical implication ``T ⊨ α`` (paper §5, "Logical implication").

Two strategies, mirroring the two directions the paper says it is
exploring:

* :class:`ImplicationChecker` — works from a precomputed
  :class:`~repro.core.classify.Classification` (the graph-based
  representation plus its transitive closure), answering each ``T ⊨ α``
  in time proportional to the closure lookups involved;
* :func:`entails_without_closure` — a DL-Lite-specific on-demand check
  that does **not** require the deductive closure: it runs a targeted
  reachability search from the left-hand side only.

Both support positive inclusions (including qualified existentials on the
right), negative inclusions, and functionality-free DL-Lite_R/A axioms.
"""

from __future__ import annotations

from ..dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
    AttributeDomain,
    ExistentialRole,
    NegatedAttribute,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
    inverse_of,
)
from ..dllite.tbox import TBox
from .classifier import GraphClassifier
from .classify import Classification
from .deductive import _witnesses

__all__ = ["ImplicationChecker", "entails_without_closure"]


class ImplicationChecker:
    """Decides ``T ⊨ α`` against a classification of ``T``.

    >>> from repro.dllite import parse_tbox, parse_axiom
    >>> from repro.core import ImplicationChecker
    >>> checker = ImplicationChecker.for_tbox(parse_tbox("A isa B\\nB isa C"))
    >>> checker.entails(parse_axiom("A isa C"))
    True
    >>> checker.entails(parse_axiom("C isa A"))
    False
    """

    def __init__(self, classification: Classification):
        self.classification = classification

    @classmethod
    def for_tbox(cls, tbox: TBox) -> "ImplicationChecker":
        return cls(GraphClassifier().classify(tbox))

    # -- public API -------------------------------------------------------------

    def entails(self, axiom: Axiom) -> bool:
        if isinstance(axiom, ConceptInclusion):
            if isinstance(axiom.rhs, NegatedConcept):
                return self._entails_negative(axiom.lhs, axiom.rhs.concept)
            if isinstance(axiom.rhs, QualifiedExistential):
                return self._entails_qualified(axiom.lhs, axiom.rhs)
            return self._entails_positive(axiom.lhs, axiom.rhs)
        if isinstance(axiom, RoleInclusion):
            if isinstance(axiom.rhs, NegatedRole):
                return self._entails_role_negative(axiom.lhs, axiom.rhs.role)
            return self._entails_positive(axiom.lhs, axiom.rhs)
        if isinstance(axiom, AttributeInclusion):
            if isinstance(axiom.rhs, NegatedAttribute):
                return self._entails_negative(
                    axiom.lhs, axiom.rhs.attribute, attribute=True
                ) or self._entails_negative(
                    AttributeDomain(axiom.lhs),
                    AttributeDomain(axiom.rhs.attribute),
                )
            return self._entails_positive(axiom.lhs, axiom.rhs)
        raise TypeError(f"cannot decide implication of {axiom!r}")

    # -- positive basic inclusions -----------------------------------------------

    def _known(self, expression) -> bool:
        return expression in self.classification.graph

    def _entails_positive(self, lhs, rhs) -> bool:
        if not self._known(lhs):
            return lhs == rhs  # a fresh predicate is only subsumed by itself
        if not self._known(rhs):
            return self.classification.is_unsatisfiable(lhs)
        return (
            lhs == rhs
            or self.classification.subsumes(rhs, lhs)
        )

    # -- qualified existential on the right ---------------------------------------

    def _entails_qualified(self, lhs, rhs: QualifiedExistential) -> bool:
        classification = self.classification
        if not self._known(lhs):
            return False
        if classification.is_unsatisfiable(lhs):
            return True
        target_role, target_filler = rhs.role, rhs.filler
        if not self._known(target_filler):
            return False
        for witness_lhs, role, filler_uppers in _witnesses(classification):
            if not self._known(witness_lhs):
                continue
            if not classification.subsumes(witness_lhs, lhs):
                continue
            if role != target_role and not (
                self._known(target_role)
                and classification.subsumes(target_role, role)
            ):
                continue
            if target_filler in filler_uppers:
                return True
        return False

    # -- negative inclusions --------------------------------------------------------

    def _entails_negative(self, lhs, rhs, attribute: bool = False) -> bool:
        classification = self.classification
        if self._known(lhs) and classification.is_unsatisfiable(lhs):
            return True
        if self._known(rhs) and classification.is_unsatisfiable(rhs):
            return True
        if not (self._known(lhs) and self._known(rhs)):
            return False
        lhs_uppers = classification.subsumers(lhs)
        rhs_uppers = classification.subsumers(rhs)
        for axiom in classification.tbox.negative_inclusions:
            if attribute != isinstance(axiom, AttributeInclusion):
                continue
            if isinstance(axiom, ConceptInclusion):
                first, second = axiom.lhs, axiom.rhs.concept
            elif isinstance(axiom, AttributeInclusion):
                first, second = axiom.lhs, axiom.rhs.attribute
            else:
                continue
            if (first in lhs_uppers and second in rhs_uppers) or (
                first in rhs_uppers and second in lhs_uppers
            ):
                return True
        return False

    def _entails_role_negative(self, lhs, rhs) -> bool:
        classification = self.classification
        for role in (lhs, rhs):
            if self._known(role) and classification.is_unsatisfiable(role):
                return True
        if not (self._known(lhs) and self._known(rhs)):
            return False
        candidate_pairs = [
            (lhs, rhs),
            (inverse_of(lhs), inverse_of(rhs)),
        ]
        # Role disjointness from explicit role NIs...
        for axiom in classification.tbox.negative_inclusions:
            if not isinstance(axiom, RoleInclusion):
                continue
            first, second = axiom.lhs, axiom.rhs.role
            for left, right in candidate_pairs:
                left_uppers = classification.subsumers(left)
                right_uppers = classification.subsumers(right)
                if (first in left_uppers and second in right_uppers) or (
                    first in right_uppers and second in left_uppers
                ):
                    return True
        # ...or from disjointness of the domains or ranges.
        for left, right in (
            (ExistentialRole(lhs), ExistentialRole(rhs)),
            (ExistentialRole(inverse_of(lhs)), ExistentialRole(inverse_of(rhs))),
        ):
            if self._entails_negative(left, right):
                return True
        return False


def entails_without_closure(tbox: TBox, axiom: Axiom) -> bool:
    """Decide ``T ⊨ α`` without materializing any closure.

    For positive basic inclusions this is a single reachability search in
    ``G_T`` from the left-hand side; the other axiom shapes fall back to a
    classification-backed check restricted to the predicates involved.
    """
    if (
        isinstance(axiom, (ConceptInclusion, RoleInclusion, AttributeInclusion))
        and axiom.is_positive
        and not isinstance(axiom.rhs, QualifiedExistential)
    ):
        from .digraph import build_digraph

        graph = build_digraph(tbox)
        if axiom.lhs == axiom.rhs:
            return True
        if axiom.lhs not in graph:
            return False
        if axiom.rhs not in graph:
            # Only an unsatisfiable lhs is subsumed by an unknown predicate;
            # fall through to the full check for that corner.
            return ImplicationChecker.for_tbox(tbox).entails(axiom)
        start = graph.node_id(axiom.lhs)
        goal = graph.node_id(axiom.rhs)
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                # Reachability alone is sound for satisfiable lhs; an
                # unsatisfiable lhs is handled below anyway.
                return True
            for target in graph.successors[node]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        # Not reachable: entailment still holds if lhs is unsatisfiable.
        return ImplicationChecker.for_tbox(tbox).entails(axiom)
    return ImplicationChecker.for_tbox(tbox).entails(axiom)
