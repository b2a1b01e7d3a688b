"""Quality metrics for OWL → DL-Lite approximations (§7).

"[The syntactic approach] does not, in general, guarantee soundness,
i.e. to not imply additional unwanted inferences, or completeness, which
guarantees that all entailments of the original ontology that are also
expressible in the target language are preserved."

* :func:`soundness_report` — every axiom of the approximated TBox is
  checked against the original via the ALCH tableau; the unsound ones
  (not entailed by the source) are returned;
* :func:`completeness_report` — entailment recall: of the candidate
  DL-Lite axioms entailed by the *original* ontology, which fraction is
  entailed by the *approximation* (decided with the DL-Lite
  :class:`~repro.core.implication.ImplicationChecker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.implication import ImplicationChecker
from ..dllite.axioms import Axiom, ConceptInclusion, RoleInclusion
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
    Not,
    OwlClass,
    OwlOntology,
    Some,
    Top,
)
from .owl_reasoner import OwlReasoner
from .semantic import entailed_dllite_axioms

__all__ = ["ApproximationReport", "soundness_report", "completeness_report"]


@dataclass
class ApproximationReport:
    """Outcome of comparing an approximation against its source ontology."""

    total_reference: int
    preserved: int
    unsound: List[Axiom]

    @property
    def recall(self) -> float:
        if self.total_reference == 0:
            return 1.0
        return self.preserved / self.total_reference

    @property
    def is_sound(self) -> bool:
        return not self.unsound


def _owl_concept(basic):
    """ALCH rendering of a DL-Lite basic concept; None if it needs inverse."""
    if isinstance(basic, AtomicConcept):
        return OwlClass(basic.name)
    if isinstance(basic, ExistentialRole) and isinstance(basic.role, AtomicRole):
        return Some(basic.role.name, Top())
    return None


def _axiom_entailed_by_source(axiom: Axiom, reasoner: OwlReasoner) -> bool:
    """Does the source ALCH ontology entail this DL-Lite axiom?"""
    if isinstance(axiom, RoleInclusion):
        lhs, rhs = axiom.lhs, axiom.rhs
        negated = False
        if hasattr(rhs, "role") and type(rhs).__name__ == "NegatedRole":
            return False  # role disjointness is not expressible in the source
        lhs_name = lhs.name if isinstance(lhs, AtomicRole) else lhs.role.name
        rhs_name = rhs.name if isinstance(rhs, AtomicRole) else rhs.role.name
        lhs_inv = isinstance(lhs, InverseRole)
        rhs_inv = not isinstance(rhs, AtomicRole)
        if lhs_inv != rhs_inv:
            return False  # mixed-inverse role axioms: not entailable here
        return reasoner.is_subrole(lhs_name, rhs_name)
    if not isinstance(axiom, ConceptInclusion):
        return False

    def incoming_of(basic) -> Tuple[str, ...]:
        if isinstance(basic, ExistentialRole) and isinstance(basic.role, InverseRole):
            return (basic.role.role.name,)
        return ()

    lhs_expr = _owl_concept(axiom.lhs)
    lhs_incoming = incoming_of(axiom.lhs)
    if lhs_expr is None and not lhs_incoming:
        return False
    seeds = [lhs_expr] if lhs_expr is not None else []

    rhs = axiom.rhs
    if isinstance(rhs, NegatedConcept):
        inner = rhs.concept
        inner_expr = _owl_concept(inner)
        inner_incoming = incoming_of(inner)
        if inner_expr is None and not inner_incoming:
            return False
        inner_seeds = [inner_expr] if inner_expr is not None else []
        return not reasoner.is_satisfiable(
            seeds + inner_seeds, lhs_incoming + inner_incoming
        )
    if isinstance(rhs, QualifiedExistential):
        if not isinstance(rhs.role, AtomicRole):
            return False
        negated = Not(Some(rhs.role.name, OwlClass(rhs.filler.name)))
        return not reasoner.is_satisfiable(seeds + [negated], lhs_incoming)
    rhs_expr = _owl_concept(rhs)
    if rhs_expr is None:
        # ∃P⁻ on the right: entailed iff lhs unsatisfiable or via hierarchy.
        if not reasoner.is_satisfiable(seeds, lhs_incoming):
            return True
        if isinstance(rhs, ExistentialRole) and lhs_incoming:
            return reasoner.is_subrole(lhs_incoming[0], rhs.role.role.name)
        return False
    return not reasoner.is_satisfiable(seeds + [Not(rhs_expr)], lhs_incoming)


def soundness_report(approximation: TBox, source: OwlOntology) -> List[Axiom]:
    """Axioms of *approximation* NOT entailed by *source* (empty = sound)."""
    reasoner = OwlReasoner(source)
    return [
        axiom
        for axiom in approximation
        if not _axiom_entailed_by_source(axiom, reasoner)
    ]


def completeness_report(approximation: TBox, source: OwlOntology) -> ApproximationReport:
    """Entailment recall of *approximation* w.r.t. *source*.

    The reference set is every candidate DL-Lite axiom over the source
    signature entailed by the source (semantic-global gold standard).
    """
    reasoner = OwlReasoner(source)
    reference = entailed_dllite_axioms(
        reasoner, sorted(source.class_names()), sorted(source.role_names())
    )
    checker = ImplicationChecker.for_tbox(approximation)
    preserved = sum(1 for axiom in reference if checker.entails(axiom))
    unsound = soundness_report(approximation, source)
    return ApproximationReport(
        total_reference=len(reference), preserved=preserved, unsound=unsound
    )
