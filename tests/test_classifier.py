"""Unit tests for the GraphClassifier facade."""

import pytest

from repro.core import CLOSURE_ALGORITHMS, GraphClassifier, classify
from repro.dllite import AtomicConcept, parse_tbox
from repro.errors import TimeoutExceeded
from repro.util.timing import Stopwatch


def test_classify_convenience_equals_classifier(county_tbox):
    direct = classify(county_tbox)
    via_class = GraphClassifier().classify(county_tbox)
    assert set(direct.subsumptions()) == set(via_class.subsumptions())
    assert direct.unsatisfiable() == via_class.unsatisfiable()


@pytest.mark.parametrize("algorithm", sorted(CLOSURE_ALGORITHMS))
def test_all_closure_algorithms_give_same_classification(county_tbox, algorithm):
    reference = GraphClassifier().classify(county_tbox)
    candidate = GraphClassifier(closure_algorithm=algorithm).classify(county_tbox)
    assert set(candidate.subsumptions()) == set(reference.subsumptions())
    assert candidate.unsat_ids == reference.unsat_ids


def test_timings_are_populated(county_tbox):
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer("classify")
    with use_tracer(tracer):
        GraphClassifier().classify(county_tbox)
    assert [span.name for span in tracer.spans] == [
        "classify.digraph",
        "classify.closure",
        "classify.unsat",
    ]
    assert all(span.status == "ok" for span in tracer.spans)
    assert all(span.elapsed_s >= 0 for span in tracer.spans)
    assert not tracer.open_spans


def test_budget_enforced_on_large_input():
    from repro.corpus import load_profile

    tbox = load_profile("Mouse")
    with pytest.raises(TimeoutExceeded):
        GraphClassifier().classify(tbox, watch=Stopwatch(budget_s=0.0))


def test_empty_tbox():
    classification = classify(parse_tbox(""))
    assert list(classification.subsumptions()) == []
    assert classification.unsatisfiable() == set()


def test_unknown_closure_algorithm():
    with pytest.raises(ValueError):
        GraphClassifier(closure_algorithm="nope").classify(parse_tbox("A isa B"))
