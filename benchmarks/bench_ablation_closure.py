"""Benchmark E5 — ablation of the transitive-closure algorithm.

DESIGN.md calls out the closure as "the major sub-task in ontology
classification"; this bench compares the three interchangeable
implementations (one-pass SCC bitset closure, per-node BFS, dense matrix)
on three differently-shaped corpus rows.
"""

from __future__ import annotations

import pytest

from repro.core import CLOSURE_ALGORITHMS, GraphClassifier
from repro_bench_util import corpus_tbox

SHAPES = [
    ("Mouse", 1.0),      # tree-like, tiny role box
    ("Galen", 0.5),      # role-heavy, dense inferences
    ("FMA 3.2.1", 0.5),  # deep taxonomy
]


@pytest.mark.parametrize("ontology,scale", SHAPES)
@pytest.mark.parametrize("algorithm", sorted(CLOSURE_ALGORITHMS))
def test_closure_ablation(benchmark, ontology, scale, algorithm):
    tbox = corpus_tbox(ontology, scale)
    classifier = GraphClassifier(closure_algorithm=algorithm)
    classification = benchmark.pedantic(
        lambda: classifier.classify(tbox), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["ontology"] = ontology
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["nodes"] = classification.graph.node_count
    assert classification.graph.node_count > 0
