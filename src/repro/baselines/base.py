"""Common result type and interface for all classification baselines.

Every reasoner in the Figure 1 comparison — the graph-based QuOnto
analogue and the four baselines — is exposed through the same adapter
interface: ``classify_named(tbox, watch)`` returns a
:class:`NamedClassification` holding the subsumptions between *named*
predicates (the paper's definition of ontology classification) plus the
set of unsatisfiable named predicates.  Results from different reasoners
are directly comparable with ``==`` on those two sets, which is how the
test-suite checks completeness (and how the CB analogue's documented
incompleteness is demonstrated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from ..dllite.axioms import Inclusion
from ..dllite.tbox import TBox
from ..runtime.budget import Budget

__all__ = ["NamedClassification", "Reasoner"]


@dataclass(frozen=True)
class NamedClassification:
    """Subsumptions between signature predicates, reflexive pairs omitted."""

    subsumptions: FrozenSet[Inclusion]
    unsatisfiable: FrozenSet

    def __len__(self) -> int:
        return len(self.subsumptions)

    def missing_from(self, other: "NamedClassification") -> Set[Inclusion]:
        """Subsumptions present here but absent from *other*."""
        return set(self.subsumptions) - set(other.subsumptions)

    def agrees_with(self, other: "NamedClassification") -> bool:
        return (
            self.subsumptions == other.subsumptions
            and self.unsatisfiable == other.unsatisfiable
        )


class Reasoner:
    """Base class of every classification engine in the comparison."""

    #: Column name used by the Figure 1 harness.
    name: str = "abstract"

    #: True when the engine is documented as incomplete (the CB analogue).
    complete: bool = True

    def classify_named(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> NamedClassification:
        raise NotImplementedError

    def measure(self, tbox: TBox, watch: Optional[Budget] = None) -> int:
        """Run the classification and return the subsumption *count*.

        This is the benchmark entry point: it performs the engine's full
        reasoning work but skips materializing one axiom object per
        subsumption (the real systems in Figure 1 emit hierarchies, not
        materialized pair lists, so object construction would distort the
        comparison).  The default implementation falls back to
        :meth:`classify_named`.
        """
        return len(self.classify_named(tbox, watch))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
