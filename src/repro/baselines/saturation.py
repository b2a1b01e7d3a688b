"""A rule-based saturation classifier for DL-Lite_R/A.

This is the library's *independent oracle*: a chaotic-iteration fixpoint
over inference rules on inclusions, written without any of the digraph
machinery, so the graph-based classifier can be cross-checked against it.
It is sound and complete for DL-Lite_R/A classification (and also derives
the qualified-existential and negative-inclusion closures used to
validate :mod:`repro.core.deductive`), but deliberately unoptimized —
each rule rescans the derived sets until nothing new appears.

Rules (⊑* ranges over derived positive pairs):

* reflexivity and transitivity of ⊑ within each sort;
* ``Q ⊑ R`` propagates to inverses, domains and ranges;
* ``B ⊑ ∃Q.A``  ⊢  ``B ⊑ ∃Q``;
* NI downward closure: ``X ⊑* T1``, ``Y ⊑* T2``, ``T1 ⊑ ¬T2``  ⊢  ``X ⊑ ¬Y``;
* NI symmetry, role-NI inverse closure, domain/range-NI ⊢ role-NI;
* ``X ⊑ ¬X``  ⊢  ``X`` unsatisfiable; unsatisfiability propagates to
  subsumees, role companions, attribute domains, and across
  ``B ⊑ ∃Q.A`` axioms with an unsatisfiable filler;
* qualified closure: ``B' ⊑* B``, ``(B, Q, A)``, ``Q ⊑* Q'``, ``A ⊑* A'``
  ⊢  ``(B', Q', A')``; and ``B ⊑* ∃Q``, ``∃Q⁻ ⊑* A``  ⊢  ``(B, Q, A)``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
    ConceptInclusion,
    Inclusion,
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
    inverse_of,
)
from ..dllite.tbox import TBox
from ..runtime.budget import Budget
from .base import NamedClassification, Reasoner

__all__ = ["SaturationReasoner", "Saturation"]

Pair = Tuple[object, object]


class Saturation:
    """The saturated consequence sets of one TBox."""

    def __init__(self, tbox: TBox, watch: Optional[Budget] = None):
        self.tbox = tbox
        self.positive: Set[Pair] = set()
        self.negative: Set[Pair] = set()
        self.qualified: Set[Tuple[object, object, AtomicConcept]] = set()
        self.unsat: Set[object] = set()
        self._run(watch)

    # -- helpers ---------------------------------------------------------------

    def _universe(self):
        for concept in self.tbox.signature.concepts:
            yield concept
        for role in self.tbox.signature.roles:
            yield role
            yield InverseRole(role)
            yield ExistentialRole(role)
            yield ExistentialRole(InverseRole(role))
        for attribute in self.tbox.signature.attributes:
            yield attribute
            yield AttributeDomain(attribute)

    def _run(self, watch: Optional[Budget]) -> None:
        told_qualified = []
        for axiom in self.tbox:
            if isinstance(axiom, ConceptInclusion):
                if isinstance(axiom.rhs, NegatedConcept):
                    self.negative.add((axiom.lhs, axiom.rhs.concept))
                elif isinstance(axiom.rhs, QualifiedExistential):
                    told_qualified.append(
                        (axiom.lhs, axiom.rhs.role, axiom.rhs.filler)
                    )
                else:
                    self.positive.add((axiom.lhs, axiom.rhs))
            elif isinstance(axiom, RoleInclusion):
                if isinstance(axiom.rhs, NegatedRole):
                    self.negative.add((axiom.lhs, axiom.rhs.role))
                else:
                    self.positive.add((axiom.lhs, axiom.rhs))
            elif isinstance(axiom, AttributeInclusion):
                if isinstance(axiom.rhs, NegatedAttribute):
                    self.negative.add((axiom.lhs, axiom.rhs.attribute))
                else:
                    self.positive.add((axiom.lhs, axiom.rhs))

        self.qualified.update(told_qualified)
        for node in self._universe():
            self.positive.add((node, node))
        # An instance of ∃Q has a Q-successor by definition — record it as a
        # qualified-closure seed through the implicit pair below.
        roles = []
        for atom in self.tbox.signature.roles:
            roles.extend((atom, InverseRole(atom)))

        changed = True
        while changed:
            if watch is not None:
                watch.check()
            changed = False
            changed |= self._apply_positive_rules(roles)
            changed |= self._apply_qualified_rules(roles)
            changed |= self._apply_negative_rules()
            changed |= self._apply_unsat_rules(roles)

    def _apply_positive_rules(self, roles) -> bool:
        added: Set[Pair] = set()
        positive = self.positive
        # transitivity
        by_lhs: Dict[object, Set[object]] = {}
        for lhs, rhs in positive:
            by_lhs.setdefault(lhs, set()).add(rhs)
        for lhs, rhs in positive:
            for upper in by_lhs.get(rhs, ()):
                if (lhs, upper) not in positive:
                    added.add((lhs, upper))
        # role pair propagation
        for lhs, rhs in positive:
            if isinstance(lhs, (AtomicRole, InverseRole)) and isinstance(
                rhs, (AtomicRole, InverseRole)
            ):
                for pair in (
                    (inverse_of(lhs), inverse_of(rhs)),
                    (ExistentialRole(lhs), ExistentialRole(rhs)),
                    (
                        ExistentialRole(inverse_of(lhs)),
                        ExistentialRole(inverse_of(rhs)),
                    ),
                ):
                    if pair not in positive:
                        added.add(pair)
            elif isinstance(lhs, AtomicAttribute) and isinstance(rhs, AtomicAttribute):
                pair = (AttributeDomain(lhs), AttributeDomain(rhs))
                if pair not in positive:
                    added.add(pair)
        # qualified weakening: (B, Q, A) ⊢ B ⊑ ∃Q
        for lhs, role, _filler in self.qualified:
            pair = (lhs, ExistentialRole(role))
            if pair not in positive:
                added.add(pair)
        self.positive |= added
        return bool(added)

    def _apply_qualified_rules(self, roles) -> bool:
        added = set()
        qualified = self.qualified
        positive = self.positive
        atomic_concepts = self.tbox.signature.concepts
        # monotone extension along all three positions
        for lhs, role, filler in qualified:
            for below, above in positive:
                if above == lhs and (below, role, filler) not in qualified:
                    added.add((below, role, filler))
                if below == role and isinstance(above, (AtomicRole, InverseRole)):
                    if (lhs, above, filler) not in qualified:
                        added.add((lhs, above, filler))
                if below == filler and isinstance(above, AtomicConcept):
                    if (lhs, role, above) not in qualified:
                        added.add((lhs, role, above))
        # range typing: B ⊑* ∃Q and ∃Q⁻ ⊑* A give B ⊑ ∃Q.A
        for role in roles:
            domain = ExistentialRole(role)
            range_ = ExistentialRole(inverse_of(role))
            fillers = [
                above
                for below, above in positive
                if below == range_ and isinstance(above, AtomicConcept)
            ]
            if not fillers:
                continue
            for below, above in positive:
                if above == domain:
                    for filler in fillers:
                        if (below, role, filler) not in qualified:
                            added.add((below, role, filler))
        self.qualified |= added
        return bool(added)

    def _apply_negative_rules(self) -> bool:
        added: Set[Pair] = set()
        negative = self.negative
        positive = self.positive
        # symmetry
        for first, second in negative:
            if (second, first) not in negative:
                added.add((second, first))
        # downward closure along ⊑
        for below, above in positive:
            for first, second in negative:
                if first == above and (below, second) not in negative:
                    added.add((below, second))
        # role NI inverse closure and domain/range NI ⊢ role NI
        for first, second in negative:
            if isinstance(first, (AtomicRole, InverseRole)) and isinstance(
                second, (AtomicRole, InverseRole)
            ):
                pair = (inverse_of(first), inverse_of(second))
                if pair not in negative:
                    added.add(pair)
            if isinstance(first, ExistentialRole) and isinstance(
                second, ExistentialRole
            ):
                pair = (first.role, second.role)
                if pair not in negative:
                    added.add(pair)
            if isinstance(first, AttributeDomain) and isinstance(
                second, AttributeDomain
            ):
                pair = (first.attribute, second.attribute)
                if pair not in negative:
                    added.add(pair)
        self.negative |= added
        return bool(added)

    def _apply_unsat_rules(self, roles) -> bool:
        before = len(self.unsat)
        for first, second in self.negative:
            if first == second:
                self.unsat.add(first)
        # subsumees of unsatisfiable predicates
        for below, above in self.positive:
            if above in self.unsat:
                self.unsat.add(below)
        # role / attribute companions
        for role in self.tbox.signature.roles:
            group = {
                role,
                InverseRole(role),
                ExistentialRole(role),
                ExistentialRole(InverseRole(role)),
            }
            if group & self.unsat:
                self.unsat |= group
        for attribute in self.tbox.signature.attributes:
            group = {attribute, AttributeDomain(attribute)}
            if group & self.unsat:
                self.unsat |= group
        # qualified axiom with unsatisfiable filler or role
        for lhs, role, filler in self.qualified:
            if filler in self.unsat or role in self.unsat:
                self.unsat.add(lhs)
        # an unsatisfiable predicate is below (and disjoint from) everything
        universe = list(self._universe())
        for node in list(self.unsat):
            sort = _sort(node)
            for other in universe:
                if _sort(other) == sort:
                    self.positive.add((node, other))
                    self.negative.add((node, other))
        return len(self.unsat) != before

    # -- queries -----------------------------------------------------------------

    def entails_pair(self, lhs, rhs) -> bool:
        return lhs == rhs or (lhs, rhs) in self.positive

    def entails_qualified(self, lhs, role, filler) -> bool:
        return (lhs, role, filler) in self.qualified or lhs in self.unsat

    def entails_negative(self, lhs, rhs) -> bool:
        return (lhs, rhs) in self.negative or lhs in self.unsat or rhs in self.unsat


def _sort(node) -> str:
    if isinstance(node, (AtomicConcept, ExistentialRole, AttributeDomain)):
        return "concept"
    if isinstance(node, (AtomicRole, InverseRole)):
        return "role"
    return "attribute"


class SaturationReasoner(Reasoner):
    """Figure-1 adapter around :class:`Saturation` (named predicates only)."""

    name = "saturation"

    def classify_named(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> NamedClassification:
        saturation = Saturation(tbox, watch)
        named = (
            set(tbox.signature.concepts)
            | set(tbox.signature.roles)
            | set(tbox.signature.attributes)
        )
        subsumptions = set()
        for lhs, rhs in saturation.positive:
            if lhs != rhs and lhs in named and rhs in named:
                subsumptions.add(_make(lhs, rhs))
        return NamedClassification(
            frozenset(subsumptions), frozenset(saturation.unsat & named)
        )


def _make(lhs, rhs) -> Inclusion:
    if isinstance(lhs, AtomicConcept):
        return ConceptInclusion(lhs, rhs)
    if isinstance(lhs, AtomicRole):
        return RoleInclusion(lhs, rhs)
    return AttributeInclusion(lhs, rhs)
