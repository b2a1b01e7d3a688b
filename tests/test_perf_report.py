"""The perf-report harness and its CLI surface."""

from __future__ import annotations

import json

from repro.cli import main
from repro.perf.report import check_report, format_report, run_perf_report

ARGS = dict(profile="Mouse", scale=0.1, seed=7, queries=3, repeats=2)


def test_report_is_healthy_and_checkable():
    report = run_perf_report(**ARGS)
    assert check_report(report) == []
    assert report["coherent"]
    assert report["timings"]["warm_s"] <= report["timings"]["cold_s"]
    assert report["caches"]["answers"]["hits"] > 0
    assert report["caches"]["rewriting"]["hits"] > 0
    assert len(report["per_query"]) == 3
    rendered = format_report(report)
    assert "cold pass" in rendered and "cache answers" in rendered


def test_check_report_flags_regressions():
    report = run_perf_report(**ARGS)
    broken = json.loads(json.dumps(report))  # deep copy
    # Pin the live gap probes, which a loaded host can push past their
    # allowances, so only the three planted regressions can fail.
    broken["sql_gap"]["ratio"] = broken["sql_gap"]["recorded_ratio"]
    broken["pushdown_gap"]["ratio"] = 1.0
    broken["caches"]["rewriting"]["hit_rate"] = 0.0
    broken["timings"]["warm_s"] = broken["timings"]["cold_s"] + 1.0
    broken["coherent"] = False
    failures = check_report(broken)
    assert len(failures) == 3
    assert any("rewriting" in failure for failure in failures)
    assert any("slower" in failure for failure in failures)
    assert any("incoherence" in failure for failure in failures)


def test_report_probes_the_pushdown_gap():
    report = run_perf_report(**ARGS)
    gap = report["pushdown_gap"]
    assert gap["match"]  # sqlite answers equal planned in-memory answers
    assert gap["pushdown_s"] > 0 and gap["planned_sql_s"] > 0
    rendered = format_report(report)
    assert "pushdown gap" in rendered


def test_check_report_flags_pushdown_regressions():
    report = run_perf_report(**ARGS)
    broken = json.loads(json.dumps(report))
    broken["pushdown_gap"]["match"] = False
    broken["pushdown_gap"]["ratio"] = 25.0
    broken["pushdown_gap"]["recorded"] = {
        "ok": False,
        "rows": 100000,
        "reference_rows": 2000,
        "pushed_warm_requery_s": 0.5,
        "planned_reference_s": 0.03,
    }
    failures = check_report(broken)
    assert any("diverge from the planned" in failure for failure in failures)
    assert any("recorded pushdown bench gate" in failure for failure in failures)
    assert any("pushdown has regressed" in failure for failure in failures)


def test_check_report_rejects_traced_measurements():
    report = run_perf_report(**ARGS)
    assert report["tracing_enabled"] is False  # NullTracer is the default
    traced = json.loads(json.dumps(report))
    traced["tracing_enabled"] = True
    failures = check_report(traced)
    assert any("tracing enabled" in failure for failure in failures)


def test_report_records_an_active_tracer():
    from repro.obs.trace import Tracer, use_tracer

    with use_tracer(Tracer("perf-under-trace")):
        report = run_perf_report(**ARGS)
    assert report["tracing_enabled"] is True
    assert any("tracing enabled" in failure for failure in check_report(report))


def test_cli_perf_report_check_and_json(tmp_path, capsys):
    out = tmp_path / "perf.json"
    code = main(
        [
            "perf-report",
            "--profile", "Mouse",
            "--scale", "0.1",
            "--queries", "3",
            "--repeats", "2",
            "--json", str(out),
            "--check",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "perf-report: Mouse" in captured.out
    report = json.loads(out.read_text())
    assert report["harness"] == "repro perf-report"
    assert check_report(report) == []
