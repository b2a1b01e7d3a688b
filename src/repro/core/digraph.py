"""The digraph representation of a DL-Lite TBox (paper §5, Definition 1).

Given a TBox ``T`` over signature ``Σ``, the digraph ``G_T = (N, E)`` has

1. a node ``A`` for each atomic concept ``A`` in ``Σ``;
2. nodes ``P``, ``P⁻``, ``∃P``, ``∃P⁻`` for each atomic role ``P`` in ``Σ``;
3. an arc ``(B1, B2)`` for each concept inclusion ``B1 ⊑ B2`` in ``T``;
4. arcs ``(Q1, Q2)``, ``(Q1⁻, Q2⁻)``, ``(∃Q1, ∃Q2)``, ``(∃Q1⁻, ∃Q2⁻)``
   for each role inclusion ``Q1 ⊑ Q2`` in ``T``;
5. an arc ``(B1, ∃Q)`` for each concept inclusion ``B1 ⊑ ∃Q.A`` in ``T``
   (the qualified existential is weakened to its unqualified form — the
   filler is recovered later by the deductive-closure machinery).

We additionally carry the DL-Lite_A attribute constructs the paper's
Theorem 1 mentions: nodes ``U`` and ``δ(U)`` per atomic attribute, with an
attribute inclusion ``U1 ⊑ U2`` contributing ``(U1, U2)`` and
``(δ(U1), δ(U2))``.

Nodes are plain :mod:`repro.dllite.syntax` expression objects; arcs model
the positive inclusions of ``T`` only — negative inclusions feed
``computeUnsat`` (:mod:`repro.core.unsat`) instead.

Node ids are interned by predicate kind and name, one block per
predicate: an atomic concept gets one id, a role ``P`` the four ids
``P, P⁻, ∃P, ∃P⁻`` (in that order), an attribute ``U`` the two ids
``U, δ(U)``.  Every axiom side then maps to an id by an offset into its
predicate's block, so the build hashes no node expression; the
expression-to-id ``index`` is built on first use.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
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
from ..dllite.tbox import TBox

__all__ = ["TBoxDigraph", "build_digraph", "CONCEPT_SORT", "ROLE_SORT", "ATTRIBUTE_SORT"]

CONCEPT_SORT = "concept"
ROLE_SORT = "role"
ATTRIBUTE_SORT = "attribute"

#: node sorts of one block, by predicate kind
_CONCEPT_SORTS = (CONCEPT_SORT,)
_ROLE_SORTS = (ROLE_SORT, ROLE_SORT, CONCEPT_SORT, CONCEPT_SORT)
_ATTRIBUTE_SORTS = (ATTRIBUTE_SORT, CONCEPT_SORT)


def sort_of(node) -> str:
    """The sort of a digraph node — inclusions only relate same-sort nodes."""
    if isinstance(node, (AtomicConcept, ExistentialRole, AttributeDomain)):
        return CONCEPT_SORT
    if isinstance(node, (AtomicRole, InverseRole)):
        return ROLE_SORT
    if isinstance(node, AtomicAttribute):
        return ATTRIBUTE_SORT
    raise TypeError(f"not a digraph node: {node!r}")


class TBoxDigraph:
    """``G_T`` plus the index structures the reasoning algorithms need.

    Node identifiers are dense integers (``self.nodes[i]`` is the i-th
    expression) so the closure algorithms can use array/bitset
    representations; the expression-level API converts transparently.
    The signature's concepts come first, then one block per role and one
    per attribute (see the module docstring); a predicate that an axiom
    uses but the signature does not yet list gets its block on first
    sight, after those.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self.nodes: List = []
        self.successors: List[Set[int]] = []
        #: the negative inclusions of the axioms the arcs were built from
        #: (they contribute no arcs; ``computeUnsat`` reads them here)
        self.negative_inclusions: List[Axiom] = []
        self._sorts: List[str] = []
        #: first id of each predicate's block by name, one map per kind
        self._concept_ids: Dict[str, int] = {}
        self._role_ids: Dict[str, int] = {}
        self._attribute_ids: Dict[str, int] = {}

    # -- construction ---------------------------------------------------------

    def _intern(
        self, names: Dict[str, int], predicates: Sequence, blocks: List, sorts: Tuple
    ) -> None:
        """Append one block of nodes per predicate; *blocks* holds them
        back to back, ``len(sorts)`` nodes each."""
        first = len(self.nodes)
        width = len(sorts)
        names.update(
            zip(
                [predicate.name for predicate in predicates],
                range(first, first + width * len(predicates), width),
            )
        )
        self.nodes.extend(blocks)
        self.successors.extend([set() for _ in blocks])
        self._sorts.extend(sorts * len(predicates))

    def _add_concepts(self, concepts: Iterable[AtomicConcept]) -> None:
        concepts = list(concepts)
        self._intern(self._concept_ids, concepts, concepts, _CONCEPT_SORTS)

    def _add_roles(self, roles: Iterable[AtomicRole]) -> None:
        roles = list(roles)
        blocks: List = []
        for role in roles:
            inverse = InverseRole(role)
            blocks += (role, inverse, ExistentialRole(role), ExistentialRole(inverse))
        self._intern(self._role_ids, roles, blocks, _ROLE_SORTS)

    def _add_attributes(self, attributes: Iterable[AtomicAttribute]) -> None:
        attributes = list(attributes)
        blocks: List = []
        for attribute in attributes:
            blocks += (attribute, AttributeDomain(attribute))
        self._intern(self._attribute_ids, attributes, blocks, _ATTRIBUTE_SORTS)

    def _concept_id(self, concept) -> int:
        """Id of a basic concept ``A``, ``∃Q`` or ``δ(U)``."""
        kind = type(concept)
        if kind is AtomicConcept:
            node_id = self._concept_ids.get(concept.name)
            if node_id is None:
                self._add_concepts((concept,))
                node_id = self._concept_ids[concept.name]
            return node_id
        if kind is ExistentialRole:
            base, inverse = self._role_block(concept.role)
            return base + 2 + inverse
        if kind is AttributeDomain:
            return self._attribute_id(concept.attribute) + 1
        raise TypeError(f"not a basic concept: {concept!r}")

    def _role_block(self, role) -> Tuple[int, int]:
        """``(first id of the block, 1 if role is an inverse else 0)``."""
        inverse = 0
        if type(role) is InverseRole:
            role, inverse = role.role, 1
        base = self._role_ids.get(role.name)
        if base is None:
            self._add_roles((role,))
            base = self._role_ids[role.name]
        return base, inverse

    def _attribute_id(self, attribute: AtomicAttribute) -> int:
        node_id = self._attribute_ids.get(attribute.name)
        if node_id is None:
            self._add_attributes((attribute,))
            node_id = self._attribute_ids[attribute.name]
        return node_id

    # -- inspection -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def arc_count(self) -> int:
        return sum(map(len, self.successors))

    @cached_property
    def index(self) -> Dict[object, int]:
        """Node expression -> id, built on first use (lookups go through
        :meth:`find`, which hashes a name, not an expression)."""
        return {node: node_id for node_id, node in enumerate(self.nodes)}

    def find(self, expression) -> Optional[int]:
        """Id of a node expression through its predicate's block, or None
        when *expression* is not a node of the digraph."""
        kind = type(expression)
        if kind is AtomicConcept:
            return self._concept_ids.get(expression.name)
        if kind is AtomicAttribute:
            return self._attribute_ids.get(expression.name)
        if kind is AttributeDomain:
            first = self._attribute_ids.get(expression.attribute.name)
            return None if first is None else first + 1
        offset = 0
        if kind is ExistentialRole:
            expression, offset = expression.role, 2
            kind = type(expression)
        if kind is InverseRole:
            expression, offset = expression.role, offset + 1
            kind = type(expression)
        if kind is AtomicRole:
            first = self._role_ids.get(expression.name)
            return None if first is None else first + offset
        return None

    def node_id(self, expression) -> int:
        node_id = self.find(expression)
        if node_id is None:
            raise KeyError(f"expression not in digraph: {expression}")
        return node_id

    def __contains__(self, expression) -> bool:
        return self.find(expression) is not None

    def arcs(self) -> Iterable[Tuple[object, object]]:
        for source_id, targets in enumerate(self.successors):
            for target_id in targets:
                yield self.nodes[source_id], self.nodes[target_id]

    def block(self, node_id: int) -> range:
        """Ids of the node's predicate block: ``P, P⁻, ∃P, ∃P⁻`` for any
        of those four, ``U, δ(U)`` for either of those, else the node."""
        node = self.nodes[node_id]
        if isinstance(node, ExistentialRole):
            node = node.role
        if isinstance(node, (AtomicRole, InverseRole)):
            first = self._role_ids[node.name]
            return range(first, first + 4)
        if isinstance(node, AttributeDomain):
            node = node.attribute
        if isinstance(node, AtomicAttribute):
            first = self._attribute_ids[node.name]
            return range(first, first + 2)
        return range(node_id, node_id + 1)

    def named_ids(self) -> List[int]:
        """Ids of the atomic concepts, roles and attributes."""
        return [
            *self._concept_ids.values(),
            *self._role_ids.values(),
            *self._attribute_ids.values(),
        ]

    def nodes_of_sort(self, sort: str) -> List[int]:
        return [i for i, node_sort in enumerate(self._sorts) if node_sort == sort]

    def sorts(self) -> List[str]:
        """Per-node sort labels, aligned with ``self.nodes``."""
        return list(self._sorts)

    def __repr__(self) -> str:
        return f"TBoxDigraph({self.node_count} nodes, {self.arc_count} arcs)"


def build_digraph(tbox: TBox) -> TBoxDigraph:
    """Build ``G_T`` from *tbox* following Definition 1 (plus attributes)."""
    graph = TBoxDigraph(tbox)

    # Rule 1-2: signature nodes (declared predicates included, so that
    # classification reports isolated predicates too).
    signature = tbox.signature
    graph._add_concepts(signature.concepts)
    graph._add_roles(signature.roles)
    graph._add_attributes(signature.attributes)

    # Rules 3-5: one batch of arcs per positive inclusion; the negative
    # inclusions of the same snapshot are kept for computeUnsat.
    successors = graph.successors
    negatives = graph.negative_inclusions
    concept_ids = graph._concept_ids
    concept_id, role_block = graph._concept_id, graph._role_block
    for axiom in tbox.axioms:
        kind = type(axiom)
        if kind is ConceptInclusion:
            lhs, rhs = axiom.lhs, axiom.rhs
            rhs_kind = type(rhs)
            if rhs_kind is NegatedConcept:
                negatives.append(axiom)
                continue
            # Inline fast path for the common atomic side already interned.
            source = concept_ids.get(lhs.name) if type(lhs) is AtomicConcept else None
            if source is None:
                source = concept_id(lhs)
            if rhs_kind is QualifiedExistential:
                # Rule 5: B1 ⊑ ∃Q.A contributes (B1, ∃Q) only.
                base, inverse = role_block(rhs.role)
                target = base + 2 + inverse
            else:
                target = concept_ids.get(rhs.name) if rhs_kind is AtomicConcept else None
                if target is None:
                    target = concept_id(rhs)
            successors[source].add(target)
        elif kind is RoleInclusion:
            if type(axiom.rhs) is NegatedRole:
                negatives.append(axiom)
                continue
            # Offset k of the lhs block (Q1, Q1⁻, ∃Q1, ∃Q1⁻ for k = 0..3
            # when Q1 is atomic) maps to offset k ^ flip of the rhs block.
            lhs_base, lhs_inverse = role_block(axiom.lhs)
            rhs_base, rhs_inverse = role_block(axiom.rhs)
            flip = lhs_inverse ^ rhs_inverse
            for offset in range(4):
                successors[lhs_base + offset].add(rhs_base + (offset ^ flip))
        elif kind is AttributeInclusion:
            if type(axiom.rhs) is NegatedAttribute:
                negatives.append(axiom)
                continue
            lhs_id = graph._attribute_id(axiom.lhs)
            rhs_id = graph._attribute_id(axiom.rhs)
            successors[lhs_id].add(rhs_id)
            successors[lhs_id + 1].add(rhs_id + 1)
    return graph
