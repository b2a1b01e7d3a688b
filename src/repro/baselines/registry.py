"""The reasoner line-up of Figure 1, by column name.

Maps each column of the paper's table to the algorithm-class analogue we
built for it (see DESIGN.md "Substitutions"):

=========  =============================================  =================
Column     Engine                                         Algorithm class
=========  =============================================  =================
QuOnto     :class:`~repro.baselines.registry.GraphReasoner`  digraph closure
FaCT++     :class:`~repro.baselines.tableau.DenseMatrixTableauReasoner` dense matrix (memory-capped)
HermiT     :class:`~repro.baselines.tableau.MemoizedTableauReasoner`    cached-label pairwise tests (memory-accounted)
Pellet     :class:`~repro.baselines.tableau.PairwiseTableauReasoner`    per-candidate confirmation tests, no caching
CB         :class:`~repro.baselines.cb_like.ConsequenceBasedReasoner`   consequence-based, concept-only
=========  =============================================  =================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.classifier import GraphClassifier
from ..dllite.tbox import TBox
from ..runtime.budget import Budget
from .base import NamedClassification, Reasoner
from .cb_like import ConsequenceBasedReasoner
from .saturation import SaturationReasoner
from .tableau import (
    DenseMatrixTableauReasoner,
    MemoizedTableauReasoner,
    PairwiseTableauReasoner,
)

__all__ = ["GraphReasoner", "REASONER_FACTORIES", "make_reasoner", "FIGURE1_COLUMNS"]


class GraphReasoner(Reasoner):
    """Adapter exposing :class:`repro.core.GraphClassifier` as a Reasoner."""

    name = "quonto-graph"

    def __init__(self, **options):
        self._classifier = GraphClassifier(**options)

    def classify_named(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> NamedClassification:
        classification = self._classifier.classify(tbox, watch=watch)
        named_unsat = {
            node
            for node in classification.unsatisfiable()
            if node in tbox.signature
        }
        subsumptions = []
        for inclusion in classification.subsumptions(named_only=True):
            if watch is not None:
                watch.tick()
            subsumptions.append(inclusion)
        if watch is not None:
            # no result past the budget, even between two polls
            watch.check()
        return NamedClassification(frozenset(subsumptions), frozenset(named_unsat))

    def measure(self, tbox: TBox, watch: Optional[Budget] = None) -> int:
        classification = self._classifier.classify(tbox, watch=watch)
        return classification.subsumption_count(named_only=True)


def _fallback_chain() -> Reasoner:
    """The canonical chain: an expensive tableau engine anchored by the
    graph classifier (the paper's pattern, see repro.runtime.fallback)."""
    # Imported lazily: fallback depends on this module's base classes.
    from ..runtime.fallback import FallbackChain

    return FallbackChain([PairwiseTableauReasoner(), GraphReasoner()])


REASONER_FACTORIES: Dict[str, Callable[[], Reasoner]] = {
    "quonto-graph": GraphReasoner,
    "tableau-pairwise": PairwiseTableauReasoner,
    "tableau-memoized": MemoizedTableauReasoner,
    "tableau-dense": DenseMatrixTableauReasoner,
    "cb-consequence": ConsequenceBasedReasoner,
    "saturation": SaturationReasoner,
    "fallback-chain": _fallback_chain,
}

#: Figure 1 column order, mapped to engine names.
FIGURE1_COLUMNS: List = [
    ("QuOnto", "quonto-graph"),
    ("FaCT++", "tableau-dense"),
    ("HermiT", "tableau-memoized"),
    ("Pellet", "tableau-pairwise"),
    ("CB", "cb-consequence"),
]


def make_reasoner(name: str) -> Reasoner:
    """Instantiate a reasoner by engine name (see ``REASONER_FACTORIES``)."""
    try:
        factory = REASONER_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown reasoner {name!r}; choose from {sorted(REASONER_FACTORIES)}"
        ) from None
    return factory()
