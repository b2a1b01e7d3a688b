"""Tests for the seeded chaos-soak drill and its CLI front-end."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.runtime.soak import SoakConfig, run_soak

_QUICK = SoakConfig(seed=0, threads=4, ops_per_thread=12, join_timeout_s=60.0)


@pytest.fixture(scope="module")
def quick_report():
    return run_soak(_QUICK)


@pytest.mark.parametrize("method", ["perfectref", "presto"])
def test_soak_invariants_hold(method):
    invariants = run_soak(replace(_QUICK, method=method))["invariants"]
    assert invariants["lost_updates"] == []
    assert invariants["stale_answers"] == []
    assert invariants["deadlocks"] == []
    assert invariants["errors"] == []
    assert invariants["ok"] is True


def test_soak_report_is_machine_readable(quick_report):
    # every field JSON-serializable, with the documented schema
    serialized = json.loads(json.dumps(quick_report, default=str))
    assert set(serialized) >= {
        "config",
        "totals",
        "faults",
        "invariants",
        "metrics",
        "duration_s",
    }
    totals = serialized["totals"]
    assert totals["operations"] == _QUICK.threads * _QUICK.ops_per_thread
    assert totals["queries"] + sum(totals["mutations"].values()) == totals[
        "operations"
    ]
    outcomes = totals["outcomes"]
    assert outcomes["ok"] + outcomes["degraded"] == totals["queries"]
    assert serialized["config"]["seed"] == 0


def test_soak_exercises_faults_and_mutations(quick_report):
    assert quick_report["faults"]["transients_injected"] > 0
    assert quick_report["totals"]["mutations"]["asserts"] > 0
    assert quick_report["totals"]["mutations"]["axioms"] > 0
    assert quick_report["metrics"].get("runtime.retry.transient_failures", 0) > 0


def test_soak_workload_is_seed_deterministic():
    first = run_soak(_QUICK)
    second = run_soak(_QUICK)
    # thread interleaving varies, but each thread's op stream is seeded:
    # the workload composition must replay exactly
    assert first["totals"]["queries"] == second["totals"]["queries"]
    assert first["totals"]["mutations"] == second["totals"]["mutations"]


def test_soak_without_faults_runs_clean():
    report = run_soak(
        SoakConfig(
            seed=1,
            threads=3,
            ops_per_thread=8,
            transient_rate=0.0,
            slow_rate=0.0,
            join_timeout_s=60.0,
        )
    )
    assert report["invariants"]["ok"] is True
    assert report["faults"]["calls"] == 0


def test_cli_soak_smoke(tmp_path, capsys):
    out = tmp_path / "soak.json"
    code = main(
        [
            "soak",
            "--seed",
            "0",
            "--threads",
            "4",
            "--ops",
            "10",
            "--json",
            str(out),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "lost updates: ok" in captured
    assert "stale answers: ok" in captured
    assert "deadlocks: ok" in captured
    report = json.loads(out.read_text())
    assert report["invariants"]["ok"] is True
