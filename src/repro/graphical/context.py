"""Relevant-context extraction and the focus view (paper §6,
"Visualization").

The paper's dynamic visualization model aims to "effectively identify,
group together, and highlight all the relevant concepts and roles in a
specific portion of the ontology, while moving the remaining information
into the background".  :func:`relevant_context` computes that portion:
the predicates within *radius* hops of the focus in the axiom
co-occurrence graph, ranked by distance; :func:`focus_view` projects the
TBox onto it, ready to be diagrammed (foreground) while the rest of the
ontology stays out of the picture (background).
"""

from __future__ import annotations

from typing import Dict, Set

from ..dllite.axioms import axiom_signature
from ..dllite.tbox import TBox
from ..errors import UnknownPredicate

__all__ = ["relevant_context", "focus_view"]


def _neighbours(tbox: TBox) -> Dict[object, Set]:
    graph: Dict[object, Set] = {predicate: set() for predicate in tbox.signature}
    for axiom in tbox:
        predicates = list(axiom_signature(axiom))
        for predicate in predicates:
            graph.setdefault(predicate, set()).update(
                p for p in predicates if p != predicate
            )
    return graph


def relevant_context(
    tbox: TBox, focus, radius: int = 2
) -> Dict[object, int]:
    """Predicates within *radius* hops of *focus*, mapped to their distance.

    Distance 0 is the focus itself; smaller distance = more relevant.
    """
    graph = _neighbours(tbox)
    if focus not in graph:
        raise UnknownPredicate(f"{focus} does not occur in TBox {tbox.name!r}")
    distances: Dict[object, int] = {focus: 0}
    frontier = [focus]
    for distance in range(1, radius + 1):
        next_frontier = []
        for node in frontier:
            for neighbour in graph[node]:
                if neighbour not in distances:
                    distances[neighbour] = distance
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return distances


def focus_view(tbox: TBox, focus, radius: int = 2) -> TBox:
    """The sub-TBox over the relevant context of *focus* (the foreground)."""
    context = set(relevant_context(tbox, focus, radius))
    view = TBox(name=f"{tbox.name}-focus-{focus}")
    for predicate in context:
        view.declare(predicate)
    for axiom in tbox:
        if all(p in context for p in axiom_signature(axiom)):
            view.add(axiom)
    return view
