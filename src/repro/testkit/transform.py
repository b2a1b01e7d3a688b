"""Structure-preserving TBox transformations for metamorphic testing.

A metamorphic test needs a *relation* between the output on an input and
the output on a transformed input.  This module implements the
transformations; :mod:`repro.testkit.metamorphic` asserts the relations.

Everything here is pure: the input TBox is never mutated.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
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

__all__ = [
    "Renaming",
    "random_renaming",
    "rename_axiom",
    "rename_expression",
    "rename_tbox",
    "reorder_tbox",
]


class Renaming:
    """An injective predicate-name substitution and its inverse."""

    def __init__(self, mapping: Dict[str, str]):
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("renaming is not injective")
        self.mapping = dict(mapping)

    def __call__(self, name: str) -> str:
        return self.mapping.get(name, name)

    def inverse(self) -> "Renaming":
        return Renaming({new: old for old, new in self.mapping.items()})


def random_renaming(rng: random.Random, tbox: TBox) -> Renaming:
    """A fresh injective renaming of every predicate in *tbox*'s signature."""
    names = sorted(
        [p.name for p in tbox.signature.concepts]
        + [p.name for p in tbox.signature.roles]
        + [p.name for p in tbox.signature.attributes]
    )
    fresh = [f"N{i}_{rng.randrange(10**6)}" for i in range(len(names))]
    rng.shuffle(fresh)
    return Renaming(dict(zip(names, fresh)))


def rename_expression(expression, renaming: Renaming):
    """Apply *renaming* to every predicate occurrence in an expression."""
    if isinstance(expression, AtomicConcept):
        return AtomicConcept(renaming(expression.name))
    if isinstance(expression, AtomicRole):
        return AtomicRole(renaming(expression.name))
    if isinstance(expression, AtomicAttribute):
        return AtomicAttribute(renaming(expression.name))
    if isinstance(expression, InverseRole):
        return InverseRole(rename_expression(expression.role, renaming))
    if isinstance(expression, ExistentialRole):
        return ExistentialRole(rename_expression(expression.role, renaming))
    if isinstance(expression, QualifiedExistential):
        return QualifiedExistential(
            rename_expression(expression.role, renaming),
            rename_expression(expression.filler, renaming),
        )
    if isinstance(expression, AttributeDomain):
        return AttributeDomain(rename_expression(expression.attribute, renaming))
    if isinstance(expression, NegatedConcept):
        return NegatedConcept(rename_expression(expression.concept, renaming))
    if isinstance(expression, NegatedRole):
        return NegatedRole(rename_expression(expression.role, renaming))
    if isinstance(expression, NegatedAttribute):
        return NegatedAttribute(rename_expression(expression.attribute, renaming))
    raise TypeError(f"not a DL-Lite expression: {expression!r}")


def rename_axiom(axiom: Axiom, renaming: Renaming) -> Axiom:
    """Apply *renaming* to both sides of an axiom."""
    if isinstance(axiom, ConceptInclusion):
        return ConceptInclusion(
            rename_expression(axiom.lhs, renaming),
            rename_expression(axiom.rhs, renaming),
        )
    if isinstance(axiom, RoleInclusion):
        return RoleInclusion(
            rename_expression(axiom.lhs, renaming),
            rename_expression(axiom.rhs, renaming),
        )
    if isinstance(axiom, AttributeInclusion):
        return AttributeInclusion(
            rename_expression(axiom.lhs, renaming),
            rename_expression(axiom.rhs, renaming),
        )
    if isinstance(axiom, FunctionalRole):
        return FunctionalRole(rename_expression(axiom.role, renaming))
    if isinstance(axiom, FunctionalAttribute):
        return FunctionalAttribute(rename_expression(axiom.attribute, renaming))
    raise TypeError(f"not a TBox axiom: {axiom!r}")


def rename_tbox(tbox: TBox, renaming: Renaming) -> TBox:
    """A copy of *tbox* with every predicate renamed (declarations kept)."""
    renamed = TBox(
        (rename_axiom(axiom, renaming) for axiom in tbox),
        name=f"{tbox.name}-renamed",
    )
    for predicate in tbox.signature:
        renamed.declare(rename_expression(predicate, renaming))
    return renamed


def reorder_tbox(
    tbox: TBox, rng: random.Random, duplicate: bool = False
) -> TBox:
    """A copy with axioms shuffled (optionally with duplicates injected).

    ``TBox`` deduplicates on ``add``, so duplication exercises exactly the
    code path a sloppy loader would hit: the same axiom offered twice.
    """
    axioms: List[Axiom] = list(tbox)
    if duplicate and axioms:
        for _ in range(max(1, len(axioms) // 3)):
            axioms.append(rng.choice(axioms))
    rng.shuffle(axioms)
    reordered = TBox(axioms, name=f"{tbox.name}-reordered")
    for predicate in tbox.signature:
        reordered.declare(predicate)
    return reordered
