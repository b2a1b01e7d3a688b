"""Tests of the benchmark harness itself, on tiny workload instances.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import compare
import hostspeed
import percentiles
import replay
import run
import workloads
from repro.dllite.abox import ABox
from repro.obs.trace import Tracer


def tiny(name: str):
    return {
        "fig1-classify": lambda: workloads.Fig1Classify(
            scale=0.05, cycles_per_epoch=3, profiles=("Mouse", "Transportation"),
            pairs=4,
        ),
        "corpus-rewrite": lambda: workloads.CorpusRewrite(
            profiles=(("Mouse", 0.1, 3), ("Transportation", 0.1, 2)),
            individuals=10, extra_assertions=20,
        ),
        "univ-point": lambda: workloads.UnivPoint(persons=60, constants=2),
        "univ-mix": lambda: workloads.UnivMix(persons=60, rounds_per_epoch=3),
    }[name]


ALL = sorted(workloads.WORKLOADS)


# -- percentiles -------------------------------------------------------------------


def test_nearest_rank_on_fixed_vectors():
    values = [15, 20, 35, 40, 50]
    assert percentiles.nearest_rank(values, 5) == 15
    assert percentiles.nearest_rank(values, 30) == 20
    assert percentiles.nearest_rank(values, 40) == 20
    assert percentiles.nearest_rank(values, 50) == 35
    assert percentiles.nearest_rank(values, 100) == 50
    hundred = list(range(100, 0, -1))  # order must not matter
    assert percentiles.percentile(hundred, 90) == 90
    assert percentiles.percentile(hundred, 50) == 50
    assert percentiles.quartiles(list(range(1, 9))) == [2, 4, 6]


def test_p90_refused_below_one_hundred_samples():
    assert percentiles.min_samples(90) == 100
    assert percentiles.min_samples(50) == 20
    with pytest.raises(percentiles.TooFewSamples):
        percentiles.percentile(list(range(99)), 90)
    with pytest.raises(percentiles.TooFewSamples):
        percentiles.percentile(list(range(19)), 50)
    percentiles.percentile(list(range(100)), 90)


# -- host speed and comparison --------------------------------------------------------


def test_times_scale_to_the_reference_host_speed():
    speed = hostspeed.HostSpeed()
    for _ in range(hostspeed.PROBES):
        speed.record(2 * hostspeed.REFERENCE_S)  # a host at half the speed
    assert speed.scale(0.010) == pytest.approx(0.005)
    assert speed.relative() == pytest.approx(0.5)
    for _ in range(hostspeed.PROBES):  # the host recovers: only recent probes count
        speed.record(hostspeed.REFERENCE_S)
    assert speed.scale(0.010) == pytest.approx(0.010)


def test_compare_needs_ten_equal_pairs_for_a_gain():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8] * 2
    change = [value * 0.8 for value in parent]
    assert compare.verdict(parent, change, True, 0.1) == "better"
    assert compare.verdict(parent[:5], change[:5], True, 0.1) == "too few pairs"
    assert compare.verdict(parent, change[:9], True, 0.1) == "too few pairs"
    assert compare.verdict(parent, change, True, None) == "better"
    assert compare.verdict(change, parent, True, None) == "worse"
    assert compare.verdict(change[:5], parent[:5], True, None) == "too few pairs"


def test_compare_bound_verdicts_need_no_pairs():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8]
    assert compare.verdict(parent, [11.5] * 3, True, 0.1) == "worse"
    assert compare.verdict(parent, [10.5] * 3, True, 0.1) == "too few pairs"
    assert compare.verdict([8.0, 10.0, 12.0, 14.0], [10.0] * 4, True, 0.1) == "unresolved"
    # a spread wider than the bound is resolved when every change run is better
    assert compare.verdict([8.0, 10.0, 12.0, 14.0], [5.0] * 4, True, 0.1) == "too few pairs"
    wide = [8.0, 10.0, 12.0, 14.0, 9.0, 11.0, 13.0, 8.0, 10.0, 12.0]
    assert compare.verdict(wide, [5.0] * 10, True, 0.1) == "better"
    assert compare.verdict(parent, [value * 0.95 for value in parent] * 2, False, 0.1) \
        == "too few pairs"


# -- seeded inputs ------------------------------------------------------------------


def canonical(value) -> str:
    """A text form of generated inputs and ops with no object addresses."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canonical(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    if isinstance(value, ABox):
        return canonical(sorted(str(assertion) for assertion in value))
    return str(value)


def op_digest(workload, seed: int) -> str:
    inputs = workload.make_inputs(seed)
    parts = [canonical(inputs)]
    for epoch in range(2):
        parts.extend(canonical(op) for op in workload.ops(inputs, epoch))
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("name", ALL)
def test_same_seed_same_ops_other_seed_other_ops(name):
    workload = tiny(name)()
    assert op_digest(workload, 7) == op_digest(tiny(name)(), 7)
    assert op_digest(workload, 7) != op_digest(workload, 8)


# -- output checks ------------------------------------------------------------------


class PlantingExecutor(workloads.DirectExecutor):
    """Drops one answer from every perfectref-sqlite result set."""

    def answer(self, system, query, method, check):
        answers, latency, hit = super().answer(system, query, method, check)
        if method == "perfectref-sqlite" and answers:
            answers = set(sorted(answers, key=repr)[1:])
        return answers, latency, hit


def test_planted_wrong_answer_fails_the_check(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "univ-point", tiny("univ-point"))
    assert run.main(["--workload", "univ-point", "--seconds", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True
    monkeypatch.setattr(workloads, "DirectExecutor", PlantingExecutor)
    assert run.main(["--workload", "univ-point", "--seconds", "0"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["correct"] is False
    assert "MISMATCH univ-point: op " in out and "perfectref-sqlite=" in out


@pytest.mark.parametrize("name", ALL)
def test_untraced_run_reports_every_end_to_end_metric(name):
    spec = run.load_spec()
    result = run.run_workload(tiny(name)(), 3, seconds=0, trace=False)
    assert result["correct"], result["mismatches"]
    assert result["failed"] == 0, result["errors"]
    final = json.loads(run.report(result, spec).splitlines()[-1])
    assert set(final["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in final["metrics"].values())
    assert result["metrics"]["setup_s"]["n"] >= workloads.MIN_SETUPS


# -- traced replay -------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spec = run.load_spec()
    result = run.run_workload(tiny(name)(), 3, seconds=0.3, trace=True, workdir=tmp_path)
    assert result["correct"], result["mismatches"]
    final = json.loads(run.report(result, spec).splitlines()[-1])
    assert set(final["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert not list(tmp_path.glob("*.sqlite")), "replica files left behind"


class KeepingReplay(replay.ReplayExecutor):
    """Keeps every tracer it folds, for inspection."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tracers = []

    def _fold(self, tracer, latency=None):
        self.tracers.append(tracer)
        super()._fold(tracer, latency)


def test_replayed_chains_match_certain_answers_and_close_every_span(tmp_path):
    workload = tiny("univ-mix")()
    inputs = workload.make_inputs(5)
    replayer = KeepingReplay([], tmp_path)
    state = workload.setup(inputs, 0, replayer)
    try:
        for query in workload.SHAPES:
            for method in workloads.METHODS:
                system = state[method]
                tracer = Tracer("test")
                chained = replayer._answer_chain(tracer, system, query, method, True)
                replayer._fold(tracer)
                assert chained == system.certain_answers(query, method=method), (
                    method, query)
    finally:
        workload.teardown(state, replayer)
    assert not replayer.mismatches
    spans = [span for tracer in replayer.tracers for span in tracer.spans]
    assert spans and all(span.end_s is not None for span in spans)
    assert all(span.status == "ok" for span in spans)
    assert all(span.name.startswith("bench.") for span in spans)
    assert {"bench.rewriting.unfold", "bench.sql.plan", "bench.sqlite.execute_unfolded",
            "bench.evaluation.evaluate_ucq"} <= {span.name for span in spans}
