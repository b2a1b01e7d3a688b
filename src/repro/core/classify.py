"""Φ_T and the classification result object (paper §5, Theorem 1).

``Φ_T`` is the set of inclusions between basic concepts / basic roles /
attributes entailed by the *positive* part of the TBox.  By Theorem 1,
``S1 ⊑ S2 ∈ Φ_T`` iff the transitive closure of the digraph ``G_T``
contains the arc ``(S1, S2)`` — so computing Φ_T reduces to building the
digraph and closing it.

:class:`Classification` is the value object the QuOnto-like classifier
returns.  It answers subsumption queries, enumerates the classification
(all subsumptions between *named* predicates, the paper's definition of
ontology classification), folds in the unsatisfiable predicates computed
by ``computeUnsat`` (an unsatisfiable predicate is subsumed by every
same-sort predicate), and derives the equivalence classes and the direct
("Hasse") taxonomy used by the graphical components.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
    ConceptInclusion,
    Inclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
)
from ..dllite.tbox import TBox
from .digraph import (
    ATTRIBUTE_SORT,
    CONCEPT_SORT,
    ROLE_SORT,
    TBoxDigraph,
    sort_of,
)

__all__ = ["Classification", "phi_inclusions", "make_inclusion"]

try:
    _popcount = int.bit_count  # Python 3.10+
except AttributeError:  # Python 3.9

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def make_inclusion(lhs, rhs) -> Inclusion:
    """Build the right inclusion axiom type for two same-sort expressions."""
    sort = sort_of(lhs)
    if sort != sort_of(rhs):
        raise TypeError(f"cannot relate {lhs} and {rhs}: different sorts")
    if sort == CONCEPT_SORT:
        return ConceptInclusion(lhs, rhs)
    if sort == ROLE_SORT:
        return RoleInclusion(lhs, rhs)
    return AttributeInclusion(lhs, rhs)


class Classification:
    """The result of classifying a DL-Lite TBox.

    Parameters
    ----------
    graph:
        The digraph representation the classification was computed from.
    closure:
        Reflexive-transitive closure as integer bitsets (see
        :mod:`repro.core.closure`).
    unsat:
        Node ids of unsatisfiable predicates (``Ω_T`` support), possibly
        empty when the classifier was run in Φ_T-only mode.
    """

    def __init__(
        self,
        graph: TBoxDigraph,
        closure: List[int],
        unsat: FrozenSet[int] = frozenset(),
    ):
        self.graph = graph
        self.closure = closure
        self.unsat_ids = frozenset(unsat)
        self._sorts = graph.sorts()
        self._named_ids = graph.named_ids()
        self._named_mask = 0
        for node_id in self._named_ids:
            self._named_mask |= 1 << node_id

    @cached_property
    def _sort_mask(self) -> Dict[str, int]:
        """Bitset of the nodes of each sort (built on first use: counting
        a classification without unsatisfiable nodes never needs it)."""
        masks = {CONCEPT_SORT: 0, ROLE_SORT: 0, ATTRIBUTE_SORT: 0}
        for node_id, sort in enumerate(self._sorts):
            masks[sort] |= 1 << node_id
        return masks

    # -- basic lookups ---------------------------------------------------------

    @property
    def tbox(self) -> TBox:
        return self.graph.tbox

    def _subsumer_mask(self, node_id: int) -> int:
        """Bitset of subsumers of node: closure successors, or — for an
        unsatisfiable node — every same-sort node."""
        if node_id in self.unsat_ids:
            return self._sort_mask[self._sorts[node_id]]
        return self.closure[node_id]

    def _ids(self, mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def is_unsatisfiable(self, expression) -> bool:
        """True iff *expression* (a digraph node) is an unsatisfiable predicate."""
        return self.graph.node_id(expression) in self.unsat_ids

    def unsatisfiable(self) -> Set:
        """Ω_T as expressions: every unsatisfiable basic concept/role/attribute."""
        return {self.graph.nodes[node_id] for node_id in self.unsat_ids}

    def subsumes(self, superior, inferior) -> bool:
        """True iff the classification contains ``inferior ⊑ superior``."""
        inferior_id = self.graph.node_id(inferior)
        superior_id = self.graph.node_id(superior)
        if self._sorts[inferior_id] != self._sorts[superior_id]:
            return False
        return bool(self._subsumer_mask(inferior_id) >> superior_id & 1)

    def subsumers(self, expression, named_only: bool = False) -> Set:
        """All S with ``expression ⊑ S`` (including ``expression`` itself)."""
        mask = self._subsumer_mask(self.graph.node_id(expression))
        if named_only:
            mask &= self._named_mask
        return {self.graph.nodes[node_id] for node_id in self._ids(mask)}

    def subsumees(self, expression, named_only: bool = False) -> Set:
        """All S with ``S ⊑ expression``."""
        target_id = self.graph.node_id(expression)
        sort = self._sorts[target_id]
        result = set()
        for node_id in self._ids(self._sort_mask[sort]):
            if named_only and not (self._named_mask >> node_id & 1):
                continue
            if self._subsumer_mask(node_id) >> target_id & 1:
                result.add(self.graph.nodes[node_id])
        return result

    def equivalents(self, expression) -> Set:
        """All S with ``S ⊑ expression`` and ``expression ⊑ S``."""
        node_id = self.graph.node_id(expression)
        mask = self._subsumer_mask(node_id)
        result = set()
        for other_id in self._ids(mask):
            if self._subsumer_mask(other_id) >> node_id & 1:
                result.add(self.graph.nodes[other_id])
        return result

    # -- the classification proper ----------------------------------------------

    def subsumptions(
        self,
        named_only: bool = True,
        include_trivial: bool = False,
    ) -> Iterator[Inclusion]:
        """Enumerate the classification as inclusion axioms.

        With the defaults this is exactly the paper's notion of ontology
        classification: all subsumptions between concept/role/attribute
        *names* of the signature, reflexive pairs omitted.
        """
        nodes = self.graph.nodes
        for node_id in range(len(nodes)):
            if named_only and not (self._named_mask >> node_id & 1):
                continue
            mask = self._subsumer_mask(node_id)
            if named_only:
                mask &= self._named_mask
            for superior_id in self._ids(mask):
                if superior_id == node_id and not include_trivial:
                    continue
                yield make_inclusion(nodes[node_id], nodes[superior_id])

    def subsumption_count(self, named_only: bool = True) -> int:
        """How many pairs :meth:`subsumptions` enumerates, reflexives omitted."""
        subsumer_mask = self._subsumer_mask
        if named_only:
            named = self._named_mask
            ids = self._named_ids
            count = sum(_popcount(subsumer_mask(node_id) & named) for node_id in ids)
        else:
            ids = range(len(self.graph.nodes))
            count = sum(_popcount(subsumer_mask(node_id)) for node_id in ids)
        # every subsumer set holds its node: the closure is reflexive
        return count - len(ids)

    # -- structure for visualization ---------------------------------------------

    def equivalence_classes(self, sort: str = CONCEPT_SORT) -> List[Set]:
        """Partition the named predicates of *sort* into equivalence classes."""
        seen: Set[int] = set()
        classes: List[Set] = []
        for node_id in self._ids(self._sort_mask[sort] & self._named_mask):
            if node_id in seen:
                continue
            block = {node_id}
            for other_id in self._ids(
                self._subsumer_mask(node_id) & self._named_mask
            ):
                if other_id != node_id and self._subsumer_mask(other_id) >> node_id & 1:
                    if self._sorts[other_id] == self._sorts[node_id]:
                        block.add(other_id)
            seen |= block
            classes.append({self.graph.nodes[i] for i in block})
        return classes

    def direct_subsumptions(self, sort: str = CONCEPT_SORT) -> List[Tuple[Set, Set]]:
        """The Hasse reduction of the taxonomy over equivalence classes.

        Returns pairs ``(child_class, parent_class)`` such that the child
        is directly below the parent (no intermediate class between them).
        Used by the tree views of :mod:`repro.graphical`.
        """
        classes = self.equivalence_classes(sort)
        representative = {}
        for block_index, block in enumerate(classes):
            for node in block:
                representative[node] = block_index
        # strict subsumer block ids per block
        uppers: List[Set[int]] = []
        for block in classes:
            node = next(iter(block))
            upper = {
                representative[s]
                for s in self.subsumers(node, named_only=True)
                if s in representative
            }
            upper.discard(representative[node])
            uppers.append(upper)
        edges: List[Tuple[Set, Set]] = []
        for block_index, upper in enumerate(uppers):
            for parent in upper:
                if not any(
                    parent in uppers[middle] for middle in upper if middle != parent
                ):
                    edges.append((classes[block_index], classes[parent]))
        return edges

    def __repr__(self) -> str:
        return (
            f"Classification({self.graph.node_count} nodes, "
            f"{len(self.unsat_ids)} unsatisfiable)"
        )


def phi_inclusions(
    graph: TBoxDigraph, closure: List[int], named_only: bool = False
) -> Set[Inclusion]:
    """Materialize Φ_T from a closed digraph (Theorem 1), reflexives omitted."""
    sorts = graph.sorts()
    result: Set[Inclusion] = set()
    for node_id, node in enumerate(graph.nodes):
        if named_only and not isinstance(
            node, (AtomicConcept, AtomicRole, AtomicAttribute)
        ):
            continue
        mask = closure[node_id]
        while mask:
            low = mask & -mask
            superior_id = low.bit_length() - 1
            mask ^= low
            if superior_id == node_id:
                continue
            superior = graph.nodes[superior_id]
            if sorts[superior_id] != sorts[node_id]:
                continue
            if named_only and not isinstance(
                superior, (AtomicConcept, AtomicRole, AtomicAttribute)
            ):
                continue
            result.add(make_inclusion(node, superior))
    return result
