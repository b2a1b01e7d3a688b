"""Two-dimensional modularization of large ontologies (paper §6).

The paper's scalability answer is "a two-dimensional modularization,
both horizontal, by dividing the ontology into separate domains, and
vertical, by singling out particularly complex areas of a domain and
proposing various representations, each of growing detail":

* :func:`horizontal_modules` — partition the signature into connected
  "domains" of the predicate co-occurrence graph (optionally merged to a
  target module count) and project the TBox onto each;
* :func:`vertical_views` — a stack of views of growing detail: view ``d``
  keeps only the concepts within taxonomy depth ``d`` of the roots (the
  "most abstract form" first), together with the axioms they support.

Both return plain sub-TBoxes, each renderable as its own diagram — "the
end goal is to provide a visual representation of the ontology through
various diagrams".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..dllite.axioms import axiom_signature
from ..dllite.syntax import AtomicConcept
from ..dllite.tbox import TBox

__all__ = ["horizontal_modules", "vertical_views", "taxonomy_depths"]


def _cooccurrence_components(tbox: TBox) -> List[Set]:
    """Connected components of the predicate co-occurrence graph."""
    neighbours: Dict[object, Set] = {}
    for axiom in tbox:
        predicates = list(axiom_signature(axiom))
        for predicate in predicates:
            bucket = neighbours.setdefault(predicate, set())
            bucket.update(p for p in predicates if p != predicate)
    for predicate in tbox.signature:
        neighbours.setdefault(predicate, set())

    components: List[Set] = []
    unvisited = set(neighbours)
    while unvisited:
        seed = unvisited.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for neighbour in neighbours[node]:
                if neighbour in unvisited:
                    unvisited.discard(neighbour)
                    component.add(neighbour)
                    frontier.append(neighbour)
        components.append(component)
    return components


def _project(tbox: TBox, predicates: Set, name: str) -> TBox:
    module = TBox(name=name)
    for predicate in predicates:
        module.declare(predicate)
    for axiom in tbox:
        if all(p in predicates for p in axiom_signature(axiom)):
            module.add(axiom)
    return module


def horizontal_modules(
    tbox: TBox, max_modules: Optional[int] = None
) -> List[TBox]:
    """Split *tbox* into per-domain modules (largest first).

    Natural domains are the connected components of predicate
    co-occurrence; when *max_modules* is given, the smallest components
    are greedily merged into the smallest accumulating module until the
    count fits, so no module is lost.
    """
    components = sorted(_cooccurrence_components(tbox), key=len, reverse=True)
    if max_modules is not None and max_modules >= 1 and len(components) > max_modules:
        kept = components[:max_modules]
        for component in components[max_modules:]:
            smallest = min(range(len(kept)), key=lambda i: len(kept[i]))
            kept[smallest] = kept[smallest] | component
        components = sorted(kept, key=len, reverse=True)
    return [
        _project(tbox, component, name=f"{tbox.name}-domain{i}")
        for i, component in enumerate(components)
    ]


def taxonomy_depths(tbox: TBox) -> Dict[AtomicConcept, int]:
    """Depth of each atomic concept in the told concept taxonomy.

    Roots (concepts with no told atomic subsumer) have depth 0; every
    other concept sits one level below its shallowest parent.  Cycles
    collapse onto the depth of their entry point.
    """
    parents: Dict[AtomicConcept, List[AtomicConcept]] = {
        concept: [] for concept in tbox.signature.concepts
    }
    for axiom in tbox.concept_inclusions:
        if isinstance(axiom.lhs, AtomicConcept) and isinstance(
            axiom.rhs, AtomicConcept
        ):
            parents[axiom.lhs].append(axiom.rhs)

    depths: Dict[AtomicConcept, int] = {}

    def depth_of(concept: AtomicConcept, trail: Tuple) -> int:
        if concept in depths:
            return depths[concept]
        if concept in trail:
            return 0
        concept_parents = parents.get(concept, [])
        if not concept_parents:
            depths[concept] = 0
            return 0
        value = 1 + min(
            depth_of(parent, trail + (concept,)) for parent in concept_parents
        )
        depths[concept] = value
        return value

    for concept in parents:
        depth_of(concept, ())
    return depths


def vertical_views(tbox: TBox, levels: Optional[List[int]] = None) -> List[TBox]:
    """Views of growing detail: view for level ``d`` keeps concepts of
    taxonomy depth ≤ ``d`` plus the roles/attributes used among them."""
    depths = taxonomy_depths(tbox)
    max_depth = max(depths.values(), default=0)
    if levels is None:
        levels = sorted({0, max_depth // 2, max_depth})
    views: List[TBox] = []
    for level in levels:
        concepts = {c for c, d in depths.items() if d <= level}
        predicates = set(concepts)
        # keep roles/attributes whose axioms only mention retained concepts
        for axiom in tbox:
            signature = list(axiom_signature(axiom))
            if all(
                (not isinstance(p, AtomicConcept)) or p in concepts
                for p in signature
            ):
                predicates.update(signature)
        views.append(_project(tbox, predicates, name=f"{tbox.name}-level{level}"))
    return views
