"""Parametric synthetic DL-Lite ontology generator.

The paper evaluates classification on well-known benchmark ontologies
(Mouse, DOLCE, GALEN, FMA, ...) "suitably approximated to OWL 2 QL".
Those files are not redistributable (and not downloadable offline), so
the corpus substitutes *deterministic generators* whose shape parameters
follow each ontology's published characteristics — see
:mod:`repro.corpus.profiles` for the per-ontology parameter choices and
DESIGN.md for why the substitution preserves the benchmark's meaning.

The generator controls every cost driver of DL-Lite classification:

* taxonomy size, depth and DAG-ness (``concepts``, ``depth``,
  ``extra_parent_fraction``) — drives digraph size and closure work;
* role/attribute counts and hierarchy (4 digraph nodes per role);
* existential axioms, optionally qualified (``existential_fraction``,
  ``qualified_fraction``) and domain/range axioms — drive the inferred
  (non-told) subsumptions;
* sibling disjointness (``disjointness``) — drives ``computeUnsat``;
* deliberately unsatisfiable predicates (``unsat_seeds``) — the paper
  notes such predicates are "not rare ... in very large ontologies".

Generation is fully deterministic given ``profile.seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List

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
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
)
from ..dllite.tbox import TBox

__all__ = ["OntologyProfile", "generate"]


@dataclass(frozen=True)
class OntologyProfile:
    """Shape parameters of one synthetic benchmark ontology."""

    name: str
    #: counts (post-scaling these are the actual signature sizes)
    concepts: int
    roles: int = 0
    attributes: int = 0
    #: taxonomy shape
    depth: int = 8
    roots: int = 1
    extra_parent_fraction: float = 0.1
    extra_parents_max: int = 1
    #: role box shape
    role_depth: int = 3
    role_inverse_fraction: float = 0.15
    domain_range_fraction: float = 0.5
    #: existential axioms on concepts
    existential_fraction: float = 0.3
    qualified_fraction: float = 0.0
    #: negative inclusions
    disjointness: int = 0
    role_disjointness: int = 0
    unsat_seeds: int = 0
    #: provenance note: the real ontology's published size, and the scale
    #: factor applied to keep the whole Figure 1 grid laptop-sized.
    provenance: str = ""
    #: prefix prepended to every generated predicate name — lets several
    #: profiles be merged into one multi-domain TBox without clashes.
    name_prefix: str = ""
    seed: int = 20130322

    def scaled(self, factor: float) -> "OntologyProfile":
        """A copy with every count multiplied by *factor* (same shape)."""
        return replace(
            self,
            concepts=max(1, int(self.concepts * factor)),
            roles=int(self.roles * factor) if self.roles else 0,
            attributes=int(self.attributes * factor) if self.attributes else 0,
            disjointness=int(self.disjointness * factor),
            role_disjointness=int(self.role_disjointness * factor),
            unsat_seeds=int(self.unsat_seeds * factor),
        )


def _build_taxonomy(
    rng: random.Random, count: int, depth: int, roots: int
) -> List[int]:
    """Assign a level-structured parent to each node; returns parent ids.

    Nodes are distributed over ``depth`` levels with geometric growth, so
    deep, FMA-like hierarchies and flat, Transportation-like ones are both
    reachable with the same machinery.  Parent of node i is -1 for roots.
    """
    if count <= roots:
        return [-1] * count
    # level widths: geometric progression summing to `count`
    growth = max(1.2, (count / max(roots, 1)) ** (1.0 / max(depth - 1, 1)))
    widths = [roots]
    while sum(widths) < count and len(widths) < depth:
        widths.append(max(1, int(widths[-1] * growth)))
    # trim / pad the final level
    overflow = sum(widths) - count
    if overflow > 0:
        widths[-1] -= overflow
        if widths[-1] <= 0:
            widths.pop()
    while sum(widths) < count:
        widths[-1] += 1

    parents: List[int] = []
    level_start = 0
    previous_level: List[int] = []
    for width in widths:
        level = list(range(level_start, level_start + width))
        for node in level:
            parents.append(rng.choice(previous_level) if previous_level else -1)
        previous_level = level
        level_start += width
    return parents


def generate(profile: OntologyProfile, scale: float = 1.0) -> TBox:
    """Generate the TBox described by *profile* (optionally rescaled)."""
    if scale != 1.0:
        profile = profile.scaled(scale)
    rng = random.Random(profile.seed)
    tbox = TBox(name=profile.name)

    prefix = profile.name_prefix
    concepts = [AtomicConcept(f"{prefix}C{i}") for i in range(profile.concepts)]
    roles = [AtomicRole(f"{prefix}P{i}") for i in range(profile.roles)]
    attributes = [AtomicAttribute(f"{prefix}U{i}") for i in range(profile.attributes)]
    tbox.declare(*concepts, *roles, *attributes)

    # -- concept taxonomy -----------------------------------------------------
    parents = _build_taxonomy(rng, profile.concepts, profile.depth, profile.roots)
    children_of = {}
    for node, parent in enumerate(parents):
        if parent >= 0:
            tbox.add(ConceptInclusion(concepts[node], concepts[parent]))
            children_of.setdefault(parent, []).append(node)
    for node in range(profile.concepts):
        if parents[node] < 0:
            continue
        for _ in range(profile.extra_parents_max):
            if rng.random() >= profile.extra_parent_fraction:
                continue
            extra = rng.randrange(profile.concepts)
            if extra != node and extra != parents[node]:
                tbox.add(ConceptInclusion(concepts[node], concepts[extra]))

    # -- role box ----------------------------------------------------------------
    basic_roles = []
    for role in roles:
        basic_roles.extend((role, InverseRole(role)))
    role_parents = _build_taxonomy(
        rng, profile.roles, max(profile.role_depth, 1), max(1, profile.roles // 6)
    )
    for node, parent in enumerate(role_parents):
        if parent < 0:
            continue
        target = roles[parent]
        if rng.random() < profile.role_inverse_fraction:
            target = InverseRole(roles[parent])
        tbox.add(RoleInclusion(roles[node], target))
    for role in roles:
        if rng.random() < profile.domain_range_fraction:
            tbox.add(
                ConceptInclusion(ExistentialRole(role), rng.choice(concepts))
            )
        if rng.random() < profile.domain_range_fraction:
            tbox.add(
                ConceptInclusion(
                    ExistentialRole(InverseRole(role)), rng.choice(concepts)
                )
            )

    # -- existential axioms on concepts ----------------------------------------------
    if basic_roles:
        for concept in concepts:
            if rng.random() >= profile.existential_fraction:
                continue
            role = rng.choice(basic_roles)
            if rng.random() < profile.qualified_fraction:
                tbox.add(
                    ConceptInclusion(
                        concept, QualifiedExistential(role, rng.choice(concepts))
                    )
                )
            else:
                tbox.add(ConceptInclusion(concept, ExistentialRole(role)))

    # -- attributes --------------------------------------------------------------------
    attr_parents = _build_taxonomy(rng, profile.attributes, 2, max(1, profile.attributes // 4))
    for node, parent in enumerate(attr_parents):
        if parent >= 0:
            tbox.add(AttributeInclusion(attributes[node], attributes[parent]))
    for attribute in attributes:
        if rng.random() < profile.domain_range_fraction:
            tbox.add(
                ConceptInclusion(AttributeDomain(attribute), rng.choice(concepts))
            )

    # -- negative inclusions -------------------------------------------------------------
    # Real benchmark ontologies have (near-)zero unsatisfiable predicates,
    # so disjointness is only asserted between predicates with no common
    # subsumee in the positive closure built so far: a sibling pair that
    # shares a descendant (through multi-parents or domain axioms) would
    # cascade into mass unsatisfiability.
    if profile.disjointness or profile.role_disjointness:
        from ..core.closure import closure_scc_bitset
        from ..core.digraph import build_digraph

        graph = build_digraph(tbox)
        predecessors = [set() for _ in graph.successors]
        for source, targets in enumerate(graph.successors):
            for target in targets:
                predecessors[target].add(source)
        preds = closure_scc_bitset(predecessors)

        def compatible(first_expr, second_expr) -> bool:
            return not (
                preds[graph.node_id(first_expr)] & preds[graph.node_id(second_expr)]
            )

        sibling_groups = [group for group in children_of.values() if len(group) >= 2]
        added = 0
        for _ in range(profile.disjointness * 10):
            if added >= profile.disjointness or not sibling_groups:
                break
            group = rng.choice(sibling_groups)
            first, second = rng.sample(group, 2)
            if compatible(concepts[first], concepts[second]):
                if tbox.add(
                    ConceptInclusion(concepts[first], NegatedConcept(concepts[second]))
                ):
                    added += 1
        added = 0
        for _ in range(profile.role_disjointness * 10):
            if added >= profile.role_disjointness or len(roles) < 2:
                break
            first, second = rng.sample(roles, 2)
            if compatible(first, second):
                if tbox.add(RoleInclusion(first, NegatedRole(second))):
                    added += 1

    # -- deliberately unsatisfiable predicates ----------------------------------------------
    for index in range(profile.unsat_seeds):
        if profile.concepts < 1:
            break
        # A self-contained dead leaf: two fresh disjoint parents hanging off
        # the existing taxonomy (upward links are harmless), with Dead below
        # both.  Exactly one unsatisfiable predicate per seed.
        dead = AtomicConcept(f"{prefix}Dead{index}")
        left = AtomicConcept(f"{prefix}DeadL{index}")
        right = AtomicConcept(f"{prefix}DeadR{index}")
        tbox.add(ConceptInclusion(left, rng.choice(concepts)))
        tbox.add(ConceptInclusion(right, rng.choice(concepts)))
        tbox.add(ConceptInclusion(dead, left))
        tbox.add(ConceptInclusion(dead, right))
        tbox.add(ConceptInclusion(left, NegatedConcept(right)))
    return tbox
