"""Tests for repro.runtime.fallback — the resilient reasoner chain.

Includes the acceptance scenario of the resilience work: a
``FallbackChain([tableau, graph])`` under a budget that starves the
tableau engine must return the graph classifier's (complete) result and
record the fallback in the result metadata.
"""

import time
import warnings

import pytest

from repro.baselines import make_reasoner
from repro.corpus import load_profile
from repro.dllite import parse_tbox
from repro.errors import DegradedResult, PermanentSourceError, TimeoutExceeded
from repro.runtime import (
    Budget,
    FallbackChain,
    FaultInjector,
    FaultSpec,
    FaultyReasoner,
)


@pytest.fixture(scope="module")
def galen():
    # Large enough that the pairwise tableau cannot finish in 50 ms,
    # while the graph classifier finishes in ~15 ms.
    return load_profile("Galen", scale=0.4)


@pytest.fixture
def tiny_tbox():
    return parse_tbox("A isa B\nB isa C\nrole r\nexists r isa A")


def test_acceptance_starved_tableau_falls_back_to_graph(galen):
    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")],
        per_engine_budget_s=0.05,
    )
    with pytest.warns(DegradedResult):
        report = chain.classify_with_report(galen)
    # The graph classifier served a *complete* result ...
    assert report.served_by == "quonto-graph"
    assert report.complete is True
    assert report.degraded is True
    # ... identical to running it directly ...
    direct = make_reasoner("quonto-graph").classify_named(galen)
    assert report.classification.agrees_with(direct)
    # ... and the starved attempt is on record.
    assert [a.engine for a in report.attempts] == [
        "tableau-pairwise",
        "quonto-graph",
    ]
    assert report.attempts[0].outcome == "timeout"
    assert report.attempts[1].outcome == "ok"


def test_first_engine_success_is_not_degraded(tiny_tbox):
    chain = FallbackChain(
        [make_reasoner("quonto-graph"), make_reasoner("tableau-memoized")]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegradedResult)  # would fail the test
        report = chain.classify_with_report(tiny_tbox)
    assert report.served_by == "quonto-graph"
    assert report.degraded is False
    assert len(report.attempts) == 1


def test_all_engines_starved_raises_timeout(galen):
    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")]
    )
    watch = Budget(0.0, task="cell")
    time.sleep(0.001)
    # Never a silent partial result: when even the anchor cannot finish
    # within the caller's watch, the timeout propagates.
    with pytest.raises(TimeoutExceeded):
        chain.classify_with_report(galen, watch=watch)


def test_source_error_in_first_engine_falls_back(tiny_tbox):
    injector = FaultInjector(FaultSpec(permanent_after=0))
    flaky = FaultyReasoner(make_reasoner("tableau-memoized"), injector)
    chain = FallbackChain([flaky, make_reasoner("quonto-graph")], warn=False)
    report = chain.classify_with_report(tiny_tbox)
    assert report.served_by == "quonto-graph"
    assert report.attempts[0].outcome == "source error"
    # The same fault on the *final* engine propagates typed.
    anchor_down = FallbackChain(
        [FaultyReasoner(make_reasoner("quonto-graph"), FaultInjector(FaultSpec(permanent_after=0)))],
        warn=False,
    )
    with pytest.raises(PermanentSourceError):
        anchor_down.classify_with_report(tiny_tbox)


def test_warn_false_suppresses_the_degraded_warning(galen):
    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")],
        per_engine_budget_s=0.05,
        warn=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegradedResult)
        report = chain.classify_with_report(galen)
    assert report.degraded is True


def test_chain_behaves_like_a_reasoner(tiny_tbox):
    chain = FallbackChain([make_reasoner("quonto-graph")])
    assert chain.name == "fallback(quonto-graph)"
    assert chain.complete is True  # as complete as its anchor
    named = chain.classify_named(tiny_tbox)
    assert chain.measure(tiny_tbox) == len(named)


def test_incomplete_anchor_marks_the_chain_incomplete(tiny_tbox):
    cb = make_reasoner("cb-consequence")
    assert cb.complete is False
    chain = FallbackChain([make_reasoner("quonto-graph"), cb])
    assert chain.complete is False
    # Serving *by* an incomplete engine is degraded even at level 0.
    with pytest.warns(DegradedResult):
        report = FallbackChain([cb]).classify_with_report(tiny_tbox)
    assert report.degraded is True
    assert report.complete is False


def test_empty_chain_is_rejected():
    with pytest.raises(ValueError):
        FallbackChain([])


def test_attempts_record_slice_budget_and_elapsed(galen):
    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")],
        per_engine_budget_s=0.05,
        warn=False,
    )
    report = chain.classify_with_report(galen)
    starved, served = report.attempts
    assert starved.budget_s == 0.05
    assert starved.elapsed_s > 0.0
    assert starved.detail  # the failure reason string is on record
    assert served.budget_s is None  # the anchor runs unbounded
    assert report.elapsed_s >= starved.elapsed_s
    reasons = report.failure_reasons()
    assert len(reasons) == 1
    assert "tableau-pairwise" in reasons[0] and "timeout" in reasons[0]
    assert "timeout" in starved.describe()


def test_chain_result_to_dict_is_json_serializable(galen):
    import json

    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")],
        per_engine_budget_s=0.05,
        warn=False,
    )
    data = chain.classify_with_report(galen).to_dict()
    assert data["served_by"] == "quonto-graph"
    assert data["degraded"] is True
    assert [a["outcome"] for a in data["attempts"]] == ["timeout", "ok"]
    json.dumps(data)  # must round-trip without a custom encoder


def test_degraded_warning_includes_failure_reasons(galen):
    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")],
        per_engine_budget_s=0.05,
    )
    with pytest.warns(DegradedResult, match="tableau-pairwise: timeout"):
        chain.classify_with_report(galen)


def test_chain_run_is_traced_with_slice_failures(galen):
    from repro.obs.trace import Tracer, use_tracer

    chain = FallbackChain(
        [make_reasoner("tableau-pairwise"), make_reasoner("quonto-graph")],
        per_engine_budget_s=0.05,
        warn=False,
    )
    tracer = Tracer("chain")
    with use_tracer(tracer):
        chain.classify_with_report(galen)
    names = [span.name for span in tracer.spans]
    assert names == [
        "fallback-chain",
        "engine:tableau-pairwise",
        "engine:quonto-graph",
        "classify.digraph",
        "classify.closure",
        "classify.unsat",
    ]
    chain_span, starved, served = tracer.spans[:3]
    assert [span.name for span in served.children] == names[3:]
    assert chain_span.status == "ok"
    assert chain_span.attributes["served_by"] == "quonto-graph"
    assert chain_span.attributes["degraded"] is True
    assert starved.status == "timeout"
    assert starved.attributes["slice_budget_s"] == 0.05
    assert served.status == "ok"
    assert served.attributes["final"] is True
    assert not tracer.open_spans


def test_registry_exposes_the_chain(tiny_tbox):
    chain = make_reasoner("fallback-chain")
    assert isinstance(chain, FallbackChain)
    assert chain.classify_named(tiny_tbox).agrees_with(
        make_reasoner("quonto-graph").classify_named(tiny_tbox)
    )
