"""``computeUnsat`` — the unsatisfiable predicates Ω_T (paper §5).

The seed rule is the one the paper states: for each negative inclusion
``S1 ⊑ ¬S2`` in ``T``, every node lying in both ``predecessors(S1, G_T*)``
and ``predecessors(S2, G_T*)`` is unsatisfiable (it is subsumed by two
disjoint predicates).  Predecessor sets are taken reflexively, so a
self-disjointness ``B ⊑ ¬B`` directly kills ``B`` and everything below it.
Both are read off the forward closure: node ``i`` lies below ``S`` iff
bit ``S`` of ``closure[i]`` is set, so ``i`` is a seed when ``closure[i]``
holds both sides of a negative inclusion.

The seed is then propagated to a fixpoint with the DL-Lite-specific rules
that make the result sound *and complete*:

* a role and its inverse, domain and range stand or fall together:
  ``Q`` unsat ⇔ ``Q⁻`` unsat ⇔ ``∃Q`` unsat ⇔ ``∃Q⁻`` unsat
  (a single pair in ``Q`` would populate all four);
* an attribute and its domain likewise: ``U`` unsat ⇔ ``δ(U)`` unsat;
* every predecessor of an unsatisfiable node is unsatisfiable
  (``S' ⊑ S ⊑ ⊥``): node ``i`` is when ``closure[i]`` meets Ω_T;
* for an axiom ``B ⊑ ∃Q.A``: if the filler ``A`` is unsatisfiable, so is
  ``B`` (the role case ``Q`` unsat is already covered through the
  ``(B, ∃Q)`` arc and the predecessor rule).

The fixpoint is needed because the qualified-existential rule can create
new unsatisfiable concepts whose predecessors and role-companions must be
reconsidered.  Every rule only spreads unsatisfiability, so an empty seed
(in particular a TBox without negative inclusions) ends the work there.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional

from ..dllite.syntax import NegatedConcept, NegatedRole
from ..runtime.budget import Budget
from .digraph import TBoxDigraph

__all__ = ["compute_unsat"]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def compute_unsat(
    graph: TBoxDigraph,
    closure: List[int],
    watch: Optional[Budget] = None,
) -> FrozenSet[int]:
    """Return the node ids of every unsatisfiable predicate of the TBox."""
    # partners[s]: bit t set for every negative inclusion between s and t
    partners: Dict[int, int] = {}
    for axiom in graph.negative_inclusions:
        rhs = axiom.rhs
        if isinstance(rhs, NegatedConcept):
            negated = rhs.concept
        elif isinstance(rhs, NegatedRole):
            negated = rhs.role
        else:
            negated = rhs.attribute
        first, second = graph.find(axiom.lhs), graph.find(negated)
        if first is None or second is None:
            continue  # nothing lies below a predicate outside the digraph
        partners[first] = partners.get(first, 0) | 1 << second
        partners[second] = partners.get(second, 0) | 1 << first
    if not partners:
        return frozenset()

    # -- seed: closures holding both sides of a negative inclusion -------------
    sides = 0
    for side in partners:
        sides |= 1 << side
    unsat = 0
    for node_id, reach in enumerate(closure):
        hit = reach & sides
        if hit and any(partners[side] & hit for side in _bits(hit)):
            unsat |= 1 << node_id
    if not unsat:
        return frozenset()

    # -- propagation to fixpoint ------------------------------------------------
    # The seed is closed under predecessors already: closure[p] ⊇ closure[i]
    # whenever p lies below i.
    qualified = []
    for axiom, rhs in graph.tbox.qualified_existentials():
        lhs, filler = graph.find(axiom.lhs), graph.find(rhs.filler)
        if lhs is not None and filler is not None:
            qualified.append((lhs, filler))
    while True:
        if watch is not None:
            watch.check()
        previous = unsat

        # Role/attribute companion propagation.
        for node_id in _bits(unsat):
            block = graph.block(node_id)
            unsat |= ((1 << len(block)) - 1) << block.start

        # B ⊑ ∃Q.A with unsatisfiable filler A makes B unsatisfiable.
        for lhs, filler in qualified:
            if unsat >> filler & 1:
                unsat |= 1 << lhs

        if unsat == previous:
            break

        # Predecessors of unsatisfiable nodes are unsatisfiable; one sweep
        # closes the set, by the same argument as for the seed.
        for node_id in [i for i, reach in enumerate(closure) if reach & unsat]:
            unsat |= 1 << node_id

    return frozenset(_bits(unsat))
