"""Deductive closure of a DL-Lite TBox (paper §5, "currently working to extend").

The classification (Φ_T + Ω_T) covers subsumptions between *basic*
predicates.  The full deductive closure — which in DL-Lite is finite —
additionally contains:

* all inferred **positive inclusions with qualified existentials** on the
  right-hand side, ``B ⊑ ∃Q.A``.  Every such entailment is witnessed in
  the canonical model by either

  - a TBox axiom ``B0 ⊑ ∃Q0.A0`` with ``B ⊑* B0``, ``Q0 ⊑* Q`` and
    ``A`` above the witness's filler types (``A0 ⊑* A`` or ``∃Q0⁻ ⊑* A``), or
  - a TBox axiom ``B0 ⊑ ∃Q0`` (unqualified) with ``B ⊑* B0``,
    ``Q0 ⊑* Q`` and ``∃Q0⁻ ⊑* A``, or
  - ``B = ∃Q0`` itself (its instances have a ``Q0``-successor by
    definition) with ``Q0 ⊑* Q`` and ``∃Q0⁻ ⊑* A``, or
  - ``B`` unsatisfiable;

* all inferred **negative inclusions**: ``S1 ⊑ ¬S2`` holds iff some NI
  ``T1 ⊑ ¬T2`` of the TBox has ``{S1, S2}`` below ``{T1, T2}`` (in either
  order, and for roles also through the inverse pair), or one of the two
  sides is unsatisfiable.  Disjointness of two role *domains* (or ranges)
  additionally entails disjointness of the roles themselves: a shared
  pair would put its first component in both domains.

This module materializes that closure and is cross-checked in the test
suite against the saturation baseline and the brute-force semantics.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    NegatedConcept,
    QualifiedExistential,
    inverse_of,
    negate,
)
from ..dllite.tbox import TBox
from .classifier import GraphClassifier
from .classify import Classification, make_inclusion
from .digraph import CONCEPT_SORT

__all__ = ["deductive_closure", "qualified_inclusions", "negative_closure"]


def _witnesses(classification: Classification):
    """Yield ``(lhs_concept, role, filler_uppers)`` triples for every
    existential witness the canonical model can create.

    ``filler_uppers`` is the set of concepts the witness individual is
    guaranteed to belong to (upward-closed).
    """
    graph = classification.graph
    for axiom in graph.tbox.concept_inclusions:
        if not axiom.is_positive:
            continue
        if isinstance(axiom.rhs, QualifiedExistential):
            role = axiom.rhs.role
            uppers = classification.subsumers(
                ExistentialRole(inverse_of(role))
            ) | classification.subsumers(axiom.rhs.filler)
            yield axiom.lhs, role, uppers
        elif isinstance(axiom.rhs, ExistentialRole):
            role = axiom.rhs.role
            uppers = classification.subsumers(ExistentialRole(inverse_of(role)))
            yield axiom.lhs, role, uppers
    # Implicit witnesses: an instance of ∃Q has a Q-successor by definition.
    for role_atom in graph.tbox.signature.roles:
        for role in (role_atom, InverseRole(role_atom)):
            uppers = classification.subsumers(ExistentialRole(inverse_of(role)))
            yield ExistentialRole(role), role, uppers


def qualified_inclusions(classification: Classification) -> Set[ConceptInclusion]:
    """All entailed ``B ⊑ ∃Q.A`` with satisfiable ``B`` (basic, named filler)."""
    graph = classification.graph
    result: Set[ConceptInclusion] = set()
    concepts = [
        node
        for node in graph.nodes
        if isinstance(node, (AtomicConcept, ExistentialRole, AttributeDomain))
    ]
    atomic_concepts = set(graph.tbox.signature.concepts)
    for witness_lhs, role, filler_uppers in _witnesses(classification):
        role_uppers = [
            upper
            for upper in classification.subsumers(role)
            if not isinstance(upper, ExistentialRole)
        ]
        fillers = [f for f in filler_uppers if f in atomic_concepts]
        if not fillers:
            continue
        subsumees = classification.subsumees(witness_lhs)
        for lhs in subsumees:
            if classification.is_unsatisfiable(lhs):
                continue
            for upper_role in role_uppers:
                for filler in fillers:
                    result.add(
                        ConceptInclusion(lhs, QualifiedExistential(upper_role, filler))
                    )
    # Unsatisfiable concepts are subsumed by every qualified existential.
    unsat_concepts = [
        node
        for node in classification.unsatisfiable()
        if isinstance(node, (AtomicConcept, ExistentialRole, AttributeDomain))
    ]
    if unsat_concepts:
        all_roles: List = []
        for role_atom in graph.tbox.signature.roles:
            all_roles.extend((role_atom, InverseRole(role_atom)))
        for lhs in unsat_concepts:
            for role in all_roles:
                for filler in atomic_concepts:
                    result.add(
                        ConceptInclusion(lhs, QualifiedExistential(role, filler))
                    )
    return result


def negative_closure(classification: Classification) -> Set[Axiom]:
    """All entailed negative inclusions between basic predicates."""
    graph = classification.graph
    result: Set[Axiom] = set()

    def emit(lhs, rhs) -> None:
        # make_inclusion only accepts positive nodes, so dispatch by hand.
        if isinstance(lhs, (AtomicRole, InverseRole)):
            result.add(RoleInclusion(lhs, negate(rhs)))
            result.add(RoleInclusion(rhs, negate(lhs)))
        elif isinstance(lhs, (AtomicConcept, ExistentialRole, AttributeDomain)):
            result.add(ConceptInclusion(lhs, negate(rhs)))
            result.add(ConceptInclusion(rhs, negate(lhs)))
        else:
            result.add(AttributeInclusion(lhs, negate(rhs)))
            result.add(AttributeInclusion(rhs, negate(lhs)))

    def expand(side_a, side_b) -> None:
        for below_a in classification.subsumees(side_a):
            for below_b in classification.subsumees(side_b):
                emit(below_a, below_b)

    role_pairs: Set[Tuple] = set()
    for axiom in graph.tbox.negative_inclusions:
        if isinstance(axiom, ConceptInclusion):
            negated: NegatedConcept = axiom.rhs
            expand(axiom.lhs, negated.concept)
        elif isinstance(axiom, RoleInclusion):
            role_pairs.add((axiom.lhs, axiom.rhs.role))
        elif isinstance(axiom, AttributeInclusion):
            expand(axiom.lhs, axiom.rhs.attribute)

    # Disjoint role domains/ranges entail disjoint roles.
    concept_nis = {
        (axiom.lhs, axiom.rhs.concept)
        for axiom in result
        if isinstance(axiom, ConceptInclusion)
    }
    for lhs, rhs in list(concept_nis):
        if isinstance(lhs, ExistentialRole) and isinstance(rhs, ExistentialRole):
            # ∃Q1 ⊑ ¬∃Q2 entails Q1 ⊑ ¬Q2: a shared pair (x, y) would put x
            # in both domains (this covers the mixed ∃P vs ∃R⁻ case too,
            # through the inverse on one side).
            role_pairs.add((lhs.role, rhs.role))

    # Disjoint attribute domains entail disjoint attributes (a shared
    # (x, v) pair would put x in both domains).
    for lhs, rhs in list(concept_nis):
        if isinstance(lhs, AttributeDomain) and isinstance(rhs, AttributeDomain):
            for below_first in classification.subsumees(lhs.attribute):
                for below_second in classification.subsumees(rhs.attribute):
                    emit(below_first, below_second)

    # Close role disjointness downward and under inverses.
    for first, second in list(role_pairs):
        for below_first in classification.subsumees(first):
            for below_second in classification.subsumees(second):
                emit(below_first, below_second)
                emit(inverse_of(below_first), inverse_of(below_second))

    # Everything is disjoint from an unsatisfiable predicate of its sort.
    for unsat_node in classification.unsatisfiable():
        sort = (
            CONCEPT_SORT
            if isinstance(unsat_node, (AtomicConcept, ExistentialRole, AttributeDomain))
            else None
        )
        peers: Iterable = ()
        if sort == CONCEPT_SORT:
            peers = (
                node
                for node in graph.nodes
                if isinstance(node, (AtomicConcept, ExistentialRole, AttributeDomain))
            )
        elif isinstance(unsat_node, (AtomicRole, InverseRole)):
            peers = (
                node
                for node in graph.nodes
                if isinstance(node, (AtomicRole, InverseRole))
            )
        else:
            peers = (a for a in graph.tbox.signature.attributes)
        for peer in peers:
            emit(unsat_node, peer)

    return result


def deductive_closure(tbox: TBox, named_fillers_only: bool = True) -> Set[Axiom]:
    """The finite deductive closure of *tbox* (positive + negative inclusions).

    Reflexive inclusions ``S ⊑ S`` are omitted.  The result contains:
    basic-to-basic positive inclusions (Φ_T, extended over unsatisfiable
    left-hand sides), qualified-existential inclusions, and all negative
    inclusions.
    """
    classification = GraphClassifier().classify(tbox)
    closure: Set[Axiom] = set()
    nodes = classification.graph.nodes
    for node in nodes:
        for superior in classification.subsumers(node):
            if superior != node:
                closure.add(make_inclusion(node, superior))
    closure |= qualified_inclusions(classification)
    closure |= negative_closure(classification)
    return closure
