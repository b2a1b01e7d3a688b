"""A consequence-based classifier in the style of the CB reasoner.

Figure 1's CB column is "the only reasoner which displays comparable
performances to QuOnto ... but does not always perform complete
classification.  For instance, it does not compute property hierarchy."
This analogue reproduces both properties honestly:

* it saturates **concept** subsumptions only, over the concept fragment
  of the inclusion graph (role inclusions are *used* — they affect the
  ``∃Q`` nodes — but never *reported*);
* it does not emit the role or attribute hierarchy, and it ignores
  negative inclusions entirely (no unsatisfiability detection), which is
  exactly the kind of incompleteness the paper calls out;
* like a real consequence-based engine it *shares* derivations across
  concepts — the saturation runs once over the condensed concept graph
  (the same SCC+bitset pass the graph classifier uses, but on a smaller
  graph and with no ``computeUnsat``), so its running time is comparable
  to — on role-heavy ontologies better than — the full pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..dllite.axioms import ConceptInclusion, RoleInclusion
from ..dllite.syntax import (
    ExistentialRole,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
    inverse_of,
)
from ..dllite.tbox import TBox
from ..runtime.budget import Budget
from .base import NamedClassification, Reasoner

__all__ = ["ConsequenceBasedReasoner"]


class ConsequenceBasedReasoner(Reasoner):
    """CB analogue: fast concept-only classification, no property hierarchy."""

    name = "cb-consequence"
    complete = False

    def _saturate(
        self, tbox: TBox, watch: Optional[Budget]
    ) -> Tuple[List, List[int], List[int]]:
        """Shared saturation over the concept fragment.

        Returns ``(nodes, closure_masks, concept_ids)`` where nodes are
        the concept-fragment vertices, closure masks their reachability
        bitsets, and concept_ids the indices of atomic concepts.
        """
        from ..core.closure import closure_scc_bitset

        nodes: List = []
        index: Dict[object, int] = {}
        successors: List[Set[int]] = []

        def intern(node) -> int:
            slot = index.get(node)
            if slot is None:
                slot = len(nodes)
                index[node] = slot
                nodes.append(node)
                successors.append(set())
            return slot

        for concept in tbox.signature.concepts:
            intern(concept)

        def arc(source, target) -> None:
            successors[intern(source)].add(intern(target))

        for axiom in tbox:
            if isinstance(axiom, ConceptInclusion):
                if isinstance(axiom.rhs, NegatedConcept):
                    continue  # NIs are not handled — documented incompleteness
                if isinstance(axiom.rhs, QualifiedExistential):
                    arc(axiom.lhs, ExistentialRole(axiom.rhs.role))
                else:
                    arc(axiom.lhs, axiom.rhs)
            elif isinstance(axiom, RoleInclusion) and not isinstance(
                axiom.rhs, NegatedRole
            ):
                # Role inclusions only contribute their effect on domains
                # and ranges; the role hierarchy itself is never emitted.
                arc(ExistentialRole(axiom.lhs), ExistentialRole(axiom.rhs))
                arc(
                    ExistentialRole(inverse_of(axiom.lhs)),
                    ExistentialRole(inverse_of(axiom.rhs)),
                )

        closure = closure_scc_bitset(successors, watch)
        concept_ids = [
            index[concept]
            for concept in tbox.signature.concepts
            if concept in index
        ]
        return nodes, closure, concept_ids

    def classify_named(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> NamedClassification:
        nodes, closure, concept_ids = self._saturate(tbox, watch)
        concept_id_set = set(concept_ids)
        subsumptions = set()
        for node_id in concept_ids:
            mask = closure[node_id]
            while mask:
                if watch is not None:
                    watch.tick()
                low = mask & -mask
                superior_id = low.bit_length() - 1
                mask ^= low
                if superior_id != node_id and superior_id in concept_id_set:
                    subsumptions.add(
                        ConceptInclusion(nodes[node_id], nodes[superior_id])
                    )
        return NamedClassification(frozenset(subsumptions), frozenset())

    def measure(self, tbox: TBox, watch: Optional[Budget] = None) -> int:
        nodes, closure, concept_ids = self._saturate(tbox, watch)
        concept_mask = 0
        for node_id in concept_ids:
            concept_mask |= 1 << node_id
        count = 0
        for node_id in concept_ids:
            mask = closure[node_id] & concept_mask
            count += bin(mask).count("1") - (1 if mask >> node_id & 1 else 0)
        return count
