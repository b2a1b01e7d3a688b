"""Random ALCH ontology generation for the approximation experiments.

The paper gives no concrete corpus for §7, so benchmark E6 and the
property-based tests draw deterministic random ALCH ontologies whose
construct mix (conjunction, disjunction, universals, negation, role
hierarchy, domain/range) exercises every branch of both approximators.
"""

from __future__ import annotations

import random
from typing import List

from .owl import (
    All,
    And,
    ClassExpression,
    Not,
    Or,
    OwlClass,
    OwlOntology,
    Some,
)

__all__ = ["random_owl_ontology", "random_class_expression"]


def random_class_expression(
    rng: random.Random,
    classes: List[str],
    roles: List[str],
    depth: int = 2,
) -> ClassExpression:
    """A random ALCH class expression of bounded nesting depth."""
    if depth <= 0 or rng.random() < 0.45:
        return OwlClass(rng.choice(classes))
    choice = rng.random()
    if choice < 0.25:
        return And(
            random_class_expression(rng, classes, roles, depth - 1),
            random_class_expression(rng, classes, roles, depth - 1),
        )
    if choice < 0.45:
        return Or(
            random_class_expression(rng, classes, roles, depth - 1),
            random_class_expression(rng, classes, roles, depth - 1),
        )
    if choice < 0.70 and roles:
        return Some(
            rng.choice(roles), random_class_expression(rng, classes, roles, depth - 1)
        )
    if choice < 0.90 and roles:
        return All(
            rng.choice(roles), random_class_expression(rng, classes, roles, depth - 1)
        )
    return Not(OwlClass(rng.choice(classes)))


def random_owl_ontology(
    seed: int,
    classes: int = 6,
    roles: int = 3,
    axioms: int = 10,
    depth: int = 2,
) -> OwlOntology:
    """A deterministic random ALCH ontology (GCIs + role box)."""
    rng = random.Random(seed)
    class_names = [f"A{i}" for i in range(classes)]
    role_names = [f"r{i}" for i in range(roles)]
    ontology = OwlOntology(name=f"rand{seed}")
    for _ in range(axioms):
        kind = rng.random()
        if kind < 0.15 and len(role_names) >= 2:
            sub, super_ = rng.sample(role_names, 2)
            ontology.subproperty(sub, super_)
        elif kind < 0.30 and role_names:
            role = rng.choice(role_names)
            target = random_class_expression(rng, class_names, role_names, 1)
            if rng.random() < 0.5:
                ontology.domain(role, target)
            else:
                ontology.range(role, target)
        elif kind < 0.42:
            first = OwlClass(rng.choice(class_names))
            second = OwlClass(rng.choice(class_names))
            if first != second:
                ontology.disjoint(first, second)
        else:
            # GCI with a simple (atomic or ∃R.⊤) left-hand side most of the
            # time — like real ontologies — and occasionally a complex one.
            if rng.random() < 0.75:
                lhs: ClassExpression = OwlClass(rng.choice(class_names))
            else:
                lhs = random_class_expression(rng, class_names, role_names, 1)
            rhs = random_class_expression(rng, class_names, role_names, depth)
            ontology.subclass(lhs, rhs)
    return ontology
