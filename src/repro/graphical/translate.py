"""Diagram ⇄ TBox translation — workflow step (ii) of the paper's
methodology: "translation of this graphical formalization of the
ontology into a set of processable logical axioms, through an automated
tool".

``diagram_to_tbox`` reads a validated diagram into DL-Lite axioms;
``tbox_to_diagram`` builds a diagram from a TBox (used by the
visualization pipeline and for round-trip testing — the composition is
the identity on axiom sets).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
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
    NegatedRole,
    QualifiedExistential,
    negate,
)
from ..dllite.tbox import TBox
from ..errors import DiagramError
from .model import (
    AttributeNode,
    ConceptNode,
    Diagram,
    RestrictionSquare,
    RoleNode,
)

__all__ = ["diagram_to_tbox", "tbox_to_diagram"]


def _square_expression(diagram: Diagram, square: RestrictionSquare):
    """The DL-Lite concept a restriction square denotes."""
    anchor = diagram.element(square.role_id)
    if isinstance(anchor, AttributeNode):
        return AttributeDomain(AtomicAttribute(anchor.label))
    role = AtomicRole(anchor.label)
    basic_role = InverseRole(role) if square.inverse else role
    if square.filler_id is None:
        return ExistentialRole(basic_role)
    filler = diagram.element(square.filler_id)
    return QualifiedExistential(basic_role, AtomicConcept(filler.label))


def diagram_to_tbox(diagram: Diagram, name: Optional[str] = None) -> TBox:
    """Translate a diagram into the DL-Lite TBox it denotes."""
    diagram.validate()
    tbox = TBox(name=name or diagram.name)
    for node in diagram.concepts():
        tbox.declare(AtomicConcept(node.label))
    for node in diagram.roles():
        tbox.declare(AtomicRole(node.label))
    for node in diagram.attributes():
        tbox.declare(AtomicAttribute(node.label))

    # Cardinality labels on squares (§6's OWL-extension hook): ≤1 on a
    # domain square is (funct R); on a range square, (funct R⁻).
    from ..dllite.axioms import FunctionalAttribute, FunctionalRole

    for square in diagram.squares():
        if square.max_cardinality == 1:
            anchor = diagram.element(square.role_id)
            if isinstance(anchor, AttributeNode):
                tbox.add(FunctionalAttribute(AtomicAttribute(anchor.label)))
            else:
                role = AtomicRole(anchor.label)
                tbox.add(
                    FunctionalRole(InverseRole(role) if square.inverse else role)
                )

    for edge in diagram.edges:
        source = diagram.element(edge.source)
        target = diagram.element(edge.target)
        if isinstance(source, (ConceptNode, RestrictionSquare)):
            lhs = (
                AtomicConcept(source.label)
                if isinstance(source, ConceptNode)
                else _square_expression(diagram, source)
            )
            if isinstance(lhs, QualifiedExistential):
                raise DiagramError(
                    f"edge from {edge.source!r}: a qualified square cannot be "
                    f"the source of an inclusion (DL-Lite left-hand sides are basic)"
                )
            rhs = (
                AtomicConcept(target.label)
                if isinstance(target, ConceptNode)
                else _square_expression(diagram, target)
            )
            if edge.negated:
                if isinstance(rhs, QualifiedExistential):
                    raise DiagramError(
                        "cannot negate a qualified restriction square"
                    )
                rhs = negate(rhs)
            tbox.add(ConceptInclusion(lhs, rhs))
        elif isinstance(source, RoleNode):
            lhs_role = AtomicRole(source.label)
            rhs_role = AtomicRole(target.label)
            lhs = InverseRole(lhs_role) if edge.source_inverse else lhs_role
            rhs = InverseRole(rhs_role) if edge.target_inverse else rhs_role
            tbox.add(
                RoleInclusion(lhs, NegatedRole(rhs) if edge.negated else rhs)
            )
        elif isinstance(source, AttributeNode):
            lhs_attr = AtomicAttribute(source.label)
            rhs_attr = AtomicAttribute(target.label)
            tbox.add(
                AttributeInclusion(
                    lhs_attr,
                    NegatedAttribute(rhs_attr) if edge.negated else rhs_attr,
                )
            )
    return tbox


def tbox_to_diagram(tbox: TBox, name: Optional[str] = None) -> Diagram:
    """Build the diagram presenting *tbox* (inverse of :func:`diagram_to_tbox`)."""
    diagram = Diagram(name or tbox.name)
    for concept in sorted(tbox.signature.concepts, key=lambda c: c.name):
        diagram.concept(concept.name)
    for role in sorted(tbox.signature.roles, key=lambda r: r.name):
        diagram.role(role.name)
    for attribute in sorted(tbox.signature.attributes, key=lambda a: a.name):
        diagram.attribute(attribute.name)

    # Squares are shared: one per (role, inverse, filler) combination used.
    squares: Dict[Tuple[str, bool, Optional[str]], RestrictionSquare] = {}

    # Functionality assertions surface as ≤1 cardinality labels on the
    # corresponding (unqualified) domain/range squares.
    from ..dllite.axioms import FunctionalAttribute, FunctionalRole

    for axiom in tbox.functionality_assertions:
        if isinstance(axiom, FunctionalRole):
            inverse = isinstance(axiom.role, InverseRole)
            role_name = axiom.role.role.name if inverse else axiom.role.name
            maker = diagram.range_square if inverse else diagram.domain_square
            squares[(role_name, inverse, None)] = maker(
                role_name, max_cardinality=1
            )
        elif isinstance(axiom, FunctionalAttribute):
            squares[(axiom.attribute.name, False, None)] = diagram.domain_square(
                axiom.attribute.name, max_cardinality=1
            )

    def square_for(expression) -> RestrictionSquare:
        if isinstance(expression, AttributeDomain):
            key = (expression.attribute.name, False, None)
            if key not in squares:
                squares[key] = diagram.domain_square(expression.attribute.name)
            return squares[key]
        if isinstance(expression, ExistentialRole):
            role, filler = expression.role, None
        else:  # QualifiedExistential
            role, filler = expression.role, expression.filler.name
        inverse = isinstance(role, InverseRole)
        role_name = role.role.name if inverse else role.name
        key = (role_name, inverse, filler)
        if key not in squares:
            maker = diagram.range_square if inverse else diagram.domain_square
            squares[key] = maker(role_name, filler=filler)
        return squares[key]

    def endpoint(expression) -> str:
        if isinstance(expression, AtomicConcept):
            return expression.name
        return square_for(expression).id

    for axiom in tbox:
        if isinstance(axiom, ConceptInclusion):
            rhs, negated = axiom.rhs, False
            if hasattr(rhs, "concept"):  # NegatedConcept
                rhs, negated = rhs.concept, True
            diagram.include(endpoint(axiom.lhs), endpoint(rhs), negated=negated)
        elif isinstance(axiom, RoleInclusion):
            rhs, negated = axiom.rhs, False
            if isinstance(rhs, NegatedRole):
                rhs, negated = rhs.role, True
            source_inverse = isinstance(axiom.lhs, InverseRole)
            target_inverse = isinstance(rhs, InverseRole)
            source = axiom.lhs.role.name if source_inverse else axiom.lhs.name
            target = rhs.role.name if target_inverse else rhs.name
            diagram.include(
                source,
                target,
                negated=negated,
                source_inverse=source_inverse,
                target_inverse=target_inverse,
            )
        elif isinstance(axiom, AttributeInclusion):
            rhs, negated = axiom.rhs, False
            if isinstance(rhs, NegatedAttribute):
                rhs, negated = rhs.attribute, True
            diagram.include(axiom.lhs.name, rhs.name, negated=negated)
        # Functionality assertions have no Figure 2 notation; they are
        # carried by the textual syntax only.
    diagram.validate()
    return diagram
