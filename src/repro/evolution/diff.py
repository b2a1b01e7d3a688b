"""TBox version diffing (paper §2: "aspects such as ontology
visualization, **evolution**, and intentional reasoning have been so far
overlooked").

Two layers:

* **syntactic** — axioms and signature added/removed between versions;
* **semantic** — consequences gained and lost: named subsumptions (from
  the graph classifier) over the *shared* signature, plus predicates
  that became unsatisfiable (a regression the paper's quality-control
  step exists to catch) or were repaired.

The semantic layer is what makes the diff useful during the paper's §3
workflow: an edit that looks innocent syntactically can silently change
entailments, and ``diff.is_safe_extension`` states whether the new
version preserves every old consequence over the old vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set

from ..core.classifier import GraphClassifier
from ..dllite.axioms import Inclusion, axiom_signature
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..dllite.tbox import TBox

__all__ = ["TBoxDiff", "diff_tboxes", "render_diff"]


@dataclass
class TBoxDiff:
    """The difference between two TBox versions."""

    old_name: str
    new_name: str
    # syntactic
    added_axioms: FrozenSet
    removed_axioms: FrozenSet
    added_predicates: FrozenSet
    removed_predicates: FrozenSet
    # semantic (named subsumptions over the shared signature)
    gained_subsumptions: FrozenSet[Inclusion]
    lost_subsumptions: FrozenSet[Inclusion]
    became_unsatisfiable: FrozenSet
    repaired_unsatisfiable: FrozenSet

    @property
    def is_syntactically_identical(self) -> bool:
        return not (self.added_axioms or self.removed_axioms)

    @property
    def is_logically_equivalent(self) -> bool:
        """Same named consequences over the shared signature, same unsat set."""
        return not (
            self.gained_subsumptions
            or self.lost_subsumptions
            or self.became_unsatisfiable
            or self.repaired_unsatisfiable
        )

    @property
    def is_safe_extension(self) -> bool:
        """The new version loses no old consequence and breaks no predicate."""
        return not (self.lost_subsumptions or self.became_unsatisfiable)


def _named_subsumptions(tbox: TBox, shared) -> Set[Inclusion]:
    classification = GraphClassifier().classify(tbox)
    return {
        axiom
        for axiom in classification.subsumptions(named_only=True)
        if all(p in shared for p in axiom_signature(axiom))
    }


def _named_unsat(tbox: TBox, shared) -> Set:
    classification = GraphClassifier().classify(tbox)
    return {
        node
        for node in classification.unsatisfiable()
        if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute))
        and node in shared
    }


def diff_tboxes(old: TBox, new: TBox) -> TBoxDiff:
    """Compute the syntactic + semantic diff from *old* to *new*."""
    old_axioms, new_axioms = set(old.axioms), set(new.axioms)
    old_signature = set(old.signature)
    new_signature = set(new.signature)
    shared = old_signature & new_signature

    old_consequences = _named_subsumptions(old, shared)
    new_consequences = _named_subsumptions(new, shared)
    old_unsat = _named_unsat(old, shared)
    new_unsat = _named_unsat(new, shared)

    return TBoxDiff(
        old_name=old.name,
        new_name=new.name,
        added_axioms=frozenset(new_axioms - old_axioms),
        removed_axioms=frozenset(old_axioms - new_axioms),
        added_predicates=frozenset(new_signature - old_signature),
        removed_predicates=frozenset(old_signature - new_signature),
        gained_subsumptions=frozenset(new_consequences - old_consequences),
        lost_subsumptions=frozenset(old_consequences - new_consequences),
        became_unsatisfiable=frozenset(new_unsat - old_unsat),
        repaired_unsatisfiable=frozenset(old_unsat - new_unsat),
    )


def render_diff(diff: TBoxDiff) -> str:
    """A readable change report (Markdown-flavoured)."""
    lines: List[str] = [f"# Changes: {diff.old_name} → {diff.new_name}", ""]

    def section(title: str, items) -> None:
        if not items:
            return
        lines.append(f"## {title}")
        lines.append("")
        for item in sorted(items, key=str):
            lines.append(f"- {item}")
        lines.append("")

    section("Axioms added", diff.added_axioms)
    section("Axioms removed", diff.removed_axioms)
    section("Predicates added", diff.added_predicates)
    section("Predicates removed", diff.removed_predicates)
    section("Consequences gained (shared vocabulary)", diff.gained_subsumptions)
    section("Consequences LOST (shared vocabulary)", diff.lost_subsumptions)
    section("Predicates that BECAME UNSATISFIABLE", diff.became_unsatisfiable)
    section("Unsatisfiable predicates repaired", diff.repaired_unsatisfiable)

    if diff.is_syntactically_identical:
        lines.append("No axiom changes.")
    elif diff.is_logically_equivalent:
        lines.append(
            "The versions are logically equivalent over the shared vocabulary."
        )
    elif diff.is_safe_extension:
        lines.append(
            "Safe extension: no old consequence was lost and no predicate broke."
        )
    else:
        lines.append(
            "⚠ BREAKING CHANGE: consequences were lost or predicates became "
            "unsatisfiable — review before deploying."
        )
    return "\n".join(lines).rstrip() + "\n"
