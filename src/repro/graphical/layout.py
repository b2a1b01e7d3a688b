"""Layered layout for diagrams (a light Sugiyama pass).

Concepts are layered by longest path over the inclusion edges (subsumers
above subsumees, like the paper's hierarchy views); roles, attributes
and restriction squares are placed between the layers they connect.  One
barycenter sweep reduces crossings.  The output is a dict of element id
→ ``(x, y)`` centre coordinates consumed by :mod:`repro.graphical.svg`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .model import (
    Diagram,
)

__all__ = ["layout", "NODE_WIDTH", "NODE_HEIGHT", "H_GAP", "V_GAP"]

NODE_WIDTH = 120
NODE_HEIGHT = 40
H_GAP = 40
V_GAP = 80


def _concept_layers(diagram: Diagram) -> Dict[str, int]:
    """Longest-path layering over concept-to-concept inclusion edges."""
    concept_ids = {node.id for node in diagram.concepts()}
    parents: Dict[str, List[str]] = {cid: [] for cid in concept_ids}
    for edge in diagram.edges:
        if edge.source in concept_ids and edge.target in concept_ids and not edge.negated:
            parents[edge.source].append(edge.target)

    depth: Dict[str, int] = {}

    def depth_of(node: str, trail: Tuple[str, ...] = ()) -> int:
        if node in depth:
            return depth[node]
        if node in trail:  # cycle (equivalent concepts): collapse to one layer
            return 0
        result = 0
        for parent in parents[node]:
            result = max(result, depth_of(parent, trail + (node,)) + 1)
        depth[node] = result
        return result

    for concept_id in concept_ids:
        depth_of(concept_id)
    return depth


def layout(diagram: Diagram) -> Dict[str, Tuple[float, float]]:
    """Compute centre positions for every element of *diagram*."""
    layers = _concept_layers(diagram)
    max_layer = max(layers.values(), default=0)

    # Squares sit between their role and the concepts they connect; roles
    # and attributes go one layer below the deepest layer (a "property
    # band"), unless anchored by a square.
    band: Dict[int, List[str]] = {}
    for concept_id, layer in layers.items():
        band.setdefault(layer, []).append(concept_id)

    extra_layer = max_layer + 1
    square_layer: Dict[str, int] = {}
    for square in diagram.squares():
        anchors = [layers[e] for e in (square.filler_id,) if e in layers]
        for edge in diagram.edges:
            if edge.source == square.id and edge.target in layers:
                anchors.append(layers[edge.target])
            if edge.target == square.id and edge.source in layers:
                anchors.append(layers[edge.source])
        layer = min(anchors) if anchors else extra_layer
        square_layer[square.id] = layer
        band.setdefault(layer, []).append(square.id)
    for node in diagram.roles() + diagram.attributes():
        attached = [
            square_layer[s.id] for s in diagram.squares() if s.role_id == node.id
        ]
        layer = (max(attached) + 1) if attached else extra_layer
        band.setdefault(layer, []).append(node.id)

    # Barycenter sweep (top-down) on the undirected adjacency.
    adjacency: Dict[str, List[str]] = {eid: [] for eid in diagram.elements}
    for edge in diagram.edges:
        adjacency[edge.source].append(edge.target)
        adjacency[edge.target].append(edge.source)
    for source, target in diagram.dotted_links():
        adjacency[source].append(target)
        adjacency[target].append(source)

    positions: Dict[str, Tuple[float, float]] = {}
    order: Dict[str, int] = {}
    for layer in sorted(band):
        members = band[layer]
        if positions:
            def barycenter(member: str) -> float:
                placed = [order[n] for n in adjacency[member] if n in order]
                return sum(placed) / len(placed) if placed else len(order)

            members = sorted(members, key=barycenter)
        y = layer * (NODE_HEIGHT + V_GAP) + NODE_HEIGHT
        for index, member in enumerate(members):
            x = index * (NODE_WIDTH + H_GAP) + NODE_WIDTH
            positions[member] = (float(x), float(y))
            order[member] = index
    return positions
