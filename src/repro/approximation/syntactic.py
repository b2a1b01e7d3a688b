"""Syntactic approximation OWL → DL-Lite (§7).

"Common syntactic approximations only consider the syntactic form of the
axioms ..., disregarding those axioms which are not compliant with the
syntax of the target language."  This module implements exactly that —
fast, but neither sound-preserving nor complete in general, which is the
behaviour benchmark E6 contrasts with the semantic approach.

Transformations applied (all purely structural):

* an ``And`` on the right-hand side splits into one axiom per conjunct;
* an ``And`` on the left-hand side is *dropped* (DL-Lite left-hand sides
  are basic) — this is a typical completeness loss;
* ``Or`` on the left splits into one axiom per disjunct (this one is
  harmless);
* domain/range shapes (``∃R.⊤ ⊑ C``, ``⊤ ⊑ ∀R.C``) map to their DL-Lite
  counterparts (``∃R ⊑ C``, ``∃R⁻ ⊑ C``);
* anything else non-compliant (``Or``/``∀``/complex ``Not`` on the
  right, complex fillers, ...) is discarded.
"""

from __future__ import annotations

from typing import List, Optional

from ..dllite.axioms import ConceptInclusion, RoleInclusion
from ..dllite.syntax import (
    AtomicConcept,
    AtomicRole,
    ExistentialRole,
    InverseRole,
    NegatedConcept,
    QualifiedExistential,
)
from ..dllite.tbox import TBox
from .owl import (
    All,
    And,
    Not,
    Or,
    OwlClass,
    OwlOntology,
    OwlSubPropertyOf,
    Some,
    Top,
)

__all__ = ["syntactic_approximation"]


def _as_basic(expression) -> Optional[object]:
    """Translate an OWL class expression to a DL-Lite *basic* concept."""
    if isinstance(expression, OwlClass):
        return AtomicConcept(expression.name)
    if isinstance(expression, Some) and isinstance(expression.filler, Top):
        return ExistentialRole(AtomicRole(expression.role))
    return None


def _as_rhs(expression) -> Optional[object]:
    """Translate to a DL-Lite general concept (RHS position), or None."""
    basic = _as_basic(expression)
    if basic is not None:
        return basic
    if isinstance(expression, Not):
        inner = _as_basic(expression.operand)
        if inner is not None:
            return NegatedConcept(inner)
        return None
    if isinstance(expression, Some) and isinstance(expression.filler, OwlClass):
        return QualifiedExistential(
            AtomicRole(expression.role), AtomicConcept(expression.filler.name)
        )
    return None


def syntactic_approximation(ontology: OwlOntology, name: Optional[str] = None) -> TBox:
    """Keep the QL-compliant face of each axiom; drop the rest."""
    tbox = TBox(name=name or f"{ontology.name}-syntactic")
    for class_name in sorted(ontology.class_names()):
        tbox.declare(AtomicConcept(class_name))
    for role_name in sorted(ontology.role_names()):
        tbox.declare(AtomicRole(role_name))

    for axiom in ontology:
        if isinstance(axiom, OwlSubPropertyOf):
            tbox.add(RoleInclusion(AtomicRole(axiom.lhs), AtomicRole(axiom.rhs)))
            continue
        for lhs_part in _split_lhs(axiom.lhs):
            lhs = _as_basic(lhs_part)
            if lhs is None:
                # Special shape: ⊤ ⊑ ∀R.C is OWL's range axiom.
                if isinstance(lhs_part, Top):
                    for rhs_part in _split_rhs(axiom.rhs):
                        if isinstance(rhs_part, All) and isinstance(
                            rhs_part.filler, OwlClass
                        ):
                            tbox.add(
                                ConceptInclusion(
                                    ExistentialRole(
                                        InverseRole(AtomicRole(rhs_part.role))
                                    ),
                                    AtomicConcept(rhs_part.filler.name),
                                )
                            )
                continue
            for rhs_part in _split_rhs(axiom.rhs):
                rhs = _as_rhs(rhs_part)
                if rhs is not None:
                    tbox.add(ConceptInclusion(lhs, rhs))
    return tbox


def _split_lhs(expression) -> List[object]:
    if isinstance(expression, Or):
        parts: List[object] = []
        for operand in expression.operands:
            parts.extend(_split_lhs(operand))
        return parts
    return [expression]


def _split_rhs(expression) -> List[object]:
    if isinstance(expression, And):
        parts: List[object] = []
        for operand in expression.operands:
            parts.extend(_split_rhs(operand))
        return parts
    return [expression]
