"""The diagram model of the paper's graphical language for DL-Lite (§6).

The language's vocabulary, as described in the paper:

* **rectangles** for atomic concepts, **diamonds** for atomic roles,
  **circles** for attributes (the terminal symbols);
* a **white square** for the existential restriction on a role
  (``∃R``-side, the *domain* square) and a **black square** for the
  restriction on its inverse (``∃R⁻``-side, the *range* square), each
  linked to its role diamond — and, for qualified restrictions, to the
  concept in the scope of the restriction — by non-directed dotted edges;
* **directed edges** for inclusion assertions (optionally marked negated
  for disjointness).

Figure 2's diagram (County/State with ``isPartOf``) is reproduced by
:func:`repro.graphical.examples.figure2_diagram` and round-trips through
:mod:`repro.graphical.translate` to exactly the two assertions the paper
lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import DiagramError

__all__ = [
    "ConceptNode",
    "RoleNode",
    "AttributeNode",
    "RestrictionSquare",
    "InclusionEdge",
    "Diagram",
]


@dataclass(frozen=True)
class ConceptNode:
    """A rectangle labelled with an atomic concept name."""

    id: str
    label: str
    kind: str = field(default="concept", init=False)


@dataclass(frozen=True)
class RoleNode:
    """A diamond labelled with an atomic role name."""

    id: str
    label: str
    kind: str = field(default="role", init=False)


@dataclass(frozen=True)
class AttributeNode:
    """A circle labelled with an attribute name."""

    id: str
    label: str
    kind: str = field(default="attribute", init=False)


@dataclass(frozen=True)
class RestrictionSquare:
    """A white (domain, ``∃R``) or black (range, ``∃R⁻``) square.

    ``role_id`` points at the diamond (or circle, for attribute domains);
    ``filler_id`` optionally points at the concept in the scope of a
    qualified restriction — both links render as dotted edges.

    ``max_cardinality`` is the paper's §6 extension "currently under
    development": cardinality restrictions "by using labels on the domain
    and range squares".  ``max_cardinality=1`` on a domain square denotes
    ``(funct R)`` (on a range square, ``(funct R⁻)``); it renders as a
    ``≤1`` label.
    """

    id: str
    role_id: str
    inverse: bool = False  # False → white/domain square, True → black/range
    filler_id: Optional[str] = None
    max_cardinality: Optional[int] = None
    kind: str = field(default="square", init=False)


@dataclass(frozen=True)
class InclusionEdge:
    """A directed edge ``source → target`` (an inclusion assertion).

    ``negated=True`` renders with a slash and reads ``source ⊑ ¬target``.
    For role-to-role edges the ``source_inverse``/``target_inverse``
    flags select the inverse direction of the corresponding diamond
    (rendered as a small ``⁻`` tick at that end), so all four
    combinations ``Q1 ⊑ Q2``, ``Q1⁻ ⊑ Q2``, ... are expressible.
    """

    source: str
    target: str
    negated: bool = False
    source_inverse: bool = False
    target_inverse: bool = False


class Diagram:
    """A well-formed diagram: elements plus inclusion edges.

    >>> d = Diagram("tiny")
    >>> _ = d.concept("County"); _ = d.concept("State")
    >>> _ = d.role("isPartOf")
    >>> sq = d.domain_square("isPartOf", filler="State")
    >>> _ = d.include("County", sq.id)
    >>> d.validate()
    """

    def __init__(self, name: str = "diagram"):
        self.name = name
        self.elements: Dict[str, object] = {}
        self.edges: List[InclusionEdge] = []
        self._counter = itertools.count(1)

    # -- construction ------------------------------------------------------------

    def _register(self, element) -> None:
        if element.id in self.elements:
            raise DiagramError(f"duplicate element id {element.id!r}")
        self.elements[element.id] = element

    def concept(self, label: str, id: Optional[str] = None) -> ConceptNode:
        node = ConceptNode(id or label, label)
        self._register(node)
        return node

    def role(self, label: str, id: Optional[str] = None) -> RoleNode:
        node = RoleNode(id or label, label)
        self._register(node)
        return node

    def attribute(self, label: str, id: Optional[str] = None) -> AttributeNode:
        node = AttributeNode(id or label, label)
        self._register(node)
        return node

    def _square(
        self,
        role: str,
        inverse: bool,
        filler: Optional[str],
        id: Optional[str],
        max_cardinality: Optional[int] = None,
    ) -> RestrictionSquare:
        side = "rng" if inverse else "dom"
        square = RestrictionSquare(
            id or f"{side}_{role}_{next(self._counter)}",
            role_id=role,
            inverse=inverse,
            filler_id=filler,
            max_cardinality=max_cardinality,
        )
        self._register(square)
        return square

    def domain_square(
        self,
        role: str,
        filler: Optional[str] = None,
        id: Optional[str] = None,
        max_cardinality: Optional[int] = None,
    ) -> RestrictionSquare:
        """The white square: ``∃role`` (or ``∃role.filler``)."""
        return self._square(role, False, filler, id, max_cardinality)

    def range_square(
        self,
        role: str,
        filler: Optional[str] = None,
        id: Optional[str] = None,
        max_cardinality: Optional[int] = None,
    ) -> RestrictionSquare:
        """The black square: ``∃role⁻`` (or ``∃role⁻.filler``)."""
        return self._square(role, True, filler, id, max_cardinality)

    def include(
        self,
        source: str,
        target: str,
        negated: bool = False,
        source_inverse: bool = False,
        target_inverse: bool = False,
    ) -> InclusionEdge:
        edge = InclusionEdge(source, target, negated, source_inverse, target_inverse)
        self.edges.append(edge)
        return edge

    # -- inspection ---------------------------------------------------------------

    def element(self, id: str):
        try:
            return self.elements[id]
        except KeyError:
            raise DiagramError(f"no element with id {id!r} in diagram {self.name!r}") from None

    def concepts(self) -> List[ConceptNode]:
        return [e for e in self.elements.values() if isinstance(e, ConceptNode)]

    def roles(self) -> List[RoleNode]:
        return [e for e in self.elements.values() if isinstance(e, RoleNode)]

    def attributes(self) -> List[AttributeNode]:
        return [e for e in self.elements.values() if isinstance(e, AttributeNode)]

    def squares(self) -> List[RestrictionSquare]:
        return [e for e in self.elements.values() if isinstance(e, RestrictionSquare)]

    def dotted_links(self) -> List[Tuple[str, str]]:
        """The non-directed dotted edges implied by the squares."""
        links: List[Tuple[str, str]] = []
        for square in self.squares():
            links.append((square.id, square.role_id))
            if square.filler_id is not None:
                links.append((square.id, square.filler_id))
        return links

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`DiagramError` on dangling references or bad shapes."""
        for square in self.squares():
            role = self.elements.get(square.role_id)
            if role is None:
                raise DiagramError(
                    f"square {square.id!r} references missing role {square.role_id!r}"
                )
            if not isinstance(role, (RoleNode, AttributeNode)):
                raise DiagramError(
                    f"square {square.id!r} must link a diamond or circle, "
                    f"not {type(role).__name__}"
                )
            if isinstance(role, AttributeNode) and square.inverse:
                raise DiagramError(
                    f"square {square.id!r}: attributes have no inverse (black) square"
                )
            if isinstance(role, AttributeNode) and square.filler_id is not None:
                raise DiagramError(
                    f"square {square.id!r}: attribute domains cannot be qualified"
                )
            if square.filler_id is not None:
                filler = self.elements.get(square.filler_id)
                if not isinstance(filler, ConceptNode):
                    raise DiagramError(
                        f"square {square.id!r} filler must be a concept rectangle"
                    )
            if square.max_cardinality is not None and square.max_cardinality != 1:
                raise DiagramError(
                    f"square {square.id!r}: only max cardinality 1 (functionality) "
                    f"is expressible in DL-Lite_A; higher bounds belong to the "
                    f"OWL extension of the language"
                )
        for edge in self.edges:
            source = self.elements.get(edge.source)
            target = self.elements.get(edge.target)
            if source is None or target is None:
                raise DiagramError(
                    f"edge {edge.source!r} → {edge.target!r} references a "
                    f"missing element"
                )
            if not self._compatible(source, target):
                raise DiagramError(
                    f"edge {edge.source!r} → {edge.target!r} relates elements "
                    f"of incompatible kinds"
                )

    @staticmethod
    def _compatible(source, target) -> bool:
        concept_like = (ConceptNode, RestrictionSquare)
        if isinstance(source, concept_like) and isinstance(target, concept_like):
            return True
        if isinstance(source, RoleNode) and isinstance(target, RoleNode):
            return True
        if isinstance(source, AttributeNode) and isinstance(target, AttributeNode):
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"Diagram({self.name!r}, {len(self.elements)} elements, "
            f"{len(self.edges)} edges)"
        )
