"""The QuOnto-style graph-based classifier — the paper's core contribution.

Classification runs in the two steps of §5:

1. **Φ_T** — encode the positive inclusions into the digraph ``G_T``
   (Definition 1) and compute its transitive closure; by Theorem 1 the
   closure arcs *are* the positive subsumptions between basic predicates.
2. **Ω_T** — run ``computeUnsat`` over the closed graph to find every
   unsatisfiable predicate; an unsatisfiable predicate is subsumed by all
   same-sort predicates, which restores soundness *and* completeness of
   the classification in the presence of negative inclusions.

Step 2 can be disabled (``include_unsat=False``) to measure its cost —
that is the paper's own ablation: Φ_T alone already yields all
"non-trivial" subsumptions.

Each phase runs in a span of :func:`~repro.obs.trace.current_tracer`
(``classify.digraph``, ``classify.closure``, ``classify.unsat``); install
a recording tracer with :func:`~repro.obs.trace.use_tracer` to time them.
"""

from __future__ import annotations

from typing import Optional

from ..dllite.tbox import TBox
from ..obs.trace import current_tracer
from ..runtime.budget import Budget
from .classify import Classification
from .closure import transitive_closure
from .digraph import build_digraph
from .unsat import compute_unsat

__all__ = ["GraphClassifier", "classify"]


class GraphClassifier:
    """Graph-reachability classifier for DL-Lite_R/A and OWL 2 QL TBoxes.

    Parameters
    ----------
    closure_algorithm:
        One of ``"scc_bitset"`` (default), ``"bfs"``, ``"dense"`` — see
        :mod:`repro.core.closure`.
    include_unsat:
        Whether to run ``computeUnsat`` (step 2).  Disabling it yields the
        Φ_T-only classification, complete only for ontologies without
        negative inclusions.

    >>> from repro.dllite import parse_tbox
    >>> from repro.core import GraphClassifier
    >>> tbox = parse_tbox("A isa B\\nB isa C")
    >>> classification = GraphClassifier().classify(tbox)
    >>> from repro.dllite import AtomicConcept
    >>> classification.subsumes(AtomicConcept("C"), AtomicConcept("A"))
    True
    """

    name = "quonto-graph"

    def __init__(
        self,
        closure_algorithm: str = "scc_bitset",
        include_unsat: bool = True,
    ):
        self.closure_algorithm = closure_algorithm
        self.include_unsat = include_unsat

    def classify(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> Classification:
        """Classify *tbox*; raises TimeoutExceeded if *watch*'s budget expires."""
        tracer = current_tracer()
        with tracer.span("classify.digraph"):
            graph = build_digraph(tbox)
        with tracer.span("classify.closure"):
            closure = transitive_closure(
                graph.successors, algorithm=self.closure_algorithm, watch=watch
            )
        with tracer.span("classify.unsat"):
            if self.include_unsat:
                unsat = compute_unsat(graph, closure, watch=watch)
            else:
                unsat = frozenset()
        return Classification(graph, closure, unsat)


def classify(tbox: TBox, **options) -> Classification:
    """One-shot convenience wrapper around :class:`GraphClassifier`."""
    return GraphClassifier(**options).classify(tbox)
