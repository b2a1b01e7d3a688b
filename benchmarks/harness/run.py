#!/usr/bin/env python3
"""One seeded benchmark for Figure-1 classification and OBDA answering.

Run every workload (each in its own subprocess, one after another)::

    python3 benchmarks/harness/run.py --seed 1 --json results.json

Run one workload; the last line of output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 benchmarks/harness/run.py --workload univ-point --seed 1 --seconds 20 --trace 0

``--trace`` (or ``--trace 1``) replays the same operations under a
standalone tracer and reports the per-layer metrics instead of the
end-to-end ones.  The metric names, units and the default run length
come from ``BENCHMARK.json`` at the repository root; the library is
imported from ``src/`` of the same checkout.  The seed also sets
``PYTHONHASHSEED``: the script re-executes itself under it.  The exit
status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import percentiles  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

#: the traced run's untraced pass gets this share of the run length; the
#: traced pass replays the same operations and takes about twice as long
TRACE_SHARE = 1 / 3
#: scratch space (sqlite replicas, per-workload result files)
WORKDIR = HERE / ".work"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_pass(workload, inputs, executor, seconds=0.0, min_samples=0,
                 max_ops=None, min_setups=0, hard_cap_s=60.0):
    """Whole epochs of set-up and operations until the operations have
    taken *seconds* at the reference host speed and every latency group
    holds *min_samples*; a replay instead stops after *max_ops* operations.

    Epochs run to their end (short of *hard_cap_s* of wall time, which
    keeps a run on a slow host under the three minutes one may take), so
    a run measures whole copies of the epoch's operation mix: a cut-off
    epoch would measure a seed- and speed-dependent subset of a mix whose
    operations differ in cost by orders of magnitude.  The run length is
    counted in scaled time, not wall time, so the number of epochs does
    not depend on the host's speed either: later epochs draw other
    constants and run on an older heap, and with the length counted in
    wall time, runs that made one epoch read 3-5% more operations per
    second than runs that made two.
    """
    recorder = workloads.Recorder()
    started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - started

    def done() -> bool:
        if elapsed() >= hard_cap_s:
            return True
        if max_ops is not None:
            return recorder.ops >= max_ops
        return recorder.busy_s() >= seconds and all(
            len(recorder.samples.get(group, ())) >= min_samples
            for group in workload.groups()
        )

    def timed_setup():
        # probes just before and just after scale the set-up time
        recorder.speed.tick()
        setup_started = time.perf_counter()
        state = workload.setup(inputs, epoch, executor)
        took = time.perf_counter() - setup_started
        recorder.speed.tick()
        recorder.setup(took)
        return state

    epoch = 0
    while not done():
        state = timed_setup()
        # Set-up objects live for the whole epoch; frozen, they stay out
        # of the collections the operations trigger.
        gc.collect()
        gc.freeze()
        try:
            if hasattr(workload, "warm_up"):
                workload.warm_up(state, executor)
            for op in workload.ops(inputs, epoch):
                workload.run_op(inputs, state, op, executor, recorder)
                recorder.ops += 1
                if recorder.ops == max_ops or elapsed() >= hard_cap_s:
                    break
        finally:
            workload.teardown(state, executor)
            gc.unfreeze()
        del state
        gc.collect()
        epoch += 1
    while len(recorder.setups) < min_setups:
        state = timed_setup()
        workload.teardown(state, executor)
        del state
        gc.collect()
    return recorder


def _metric(value, unit, n=None) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(workload, recorder) -> dict:
    """The end-to-end metrics every workload reports (``metrics``: the
    ones ``BENCHMARK.json`` names) and the workload's own (``detail``).

    ``detail`` holds each latency group's nearest-rank p50 and p90 (a
    method's answer-cache misses, the pooled hits, or one Figure-1
    profile), the Figure-1 column sums ``classify.p50_ms`` and
    ``classify.p90_ms``, ``failed_ratio``, and ``host.speed``, the host's
    speed relative to the reference host that all times are scaled to.
    ``compare.py`` holds each group's p50 to a bound of its own;
    ``BENCHMARK.json`` cannot name them, because every workload must
    report every metric it names and the groups differ by workload.
    """
    busy = recorder.busy_s()
    completed = sum(len(values) for values in recorder.samples.values())
    metrics = {
        "setup_s": _metric(percentiles.median(recorder.setups), "s", len(recorder.setups)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "ops_per_s": _metric(completed / busy, "1/s", completed),
    }
    detail = {
        "failed_ratio": _metric(recorder.failed / max(recorder.attempted, 1), "ratio",
                                recorder.attempted),
        "host.speed": _metric(recorder.speed.relative(), "ratio",
                              len(recorder.speed.durations)),
    }
    for group in workload.groups():
        ms = [value * 1000 for value in recorder.samples.get(group, [])]
        for q in (50, 90):
            if len(ms) >= percentiles.min_samples(q):
                detail[f"{group}.p{q}_ms"] = _metric(
                    percentiles.percentile(ms, q), "ms", len(ms)
                )
    if isinstance(workload, workloads.Fig1Classify):
        for q in (50, 90):
            parts = [detail.get(f"{group}.p{q}_ms") for group in workload.groups()]
            if all(parts):
                detail[f"classify.p{q}_ms"] = _metric(
                    sum(part["value"] for part in parts), "ms", completed
                )
    return {"metrics": metrics, "detail": detail}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path = WORKDIR) -> dict:
    """Run one workload; returns the full result record."""
    inputs = workload.make_inputs(seed)
    direct = workloads.DirectExecutor()
    # The wall-time caps leave room, within the 180 s a run may take, for
    # the set-ups and checks that follow the capped pass.
    if not trace:
        recorder = measure_pass(
            workload, inputs, direct, seconds,
            min_samples=percentiles.min_samples(90), min_setups=workloads.MIN_SETUPS,
            hard_cap_s=120.0,
        )
        workload.final_checks(inputs, recorder)
        result = end_to_end(workload, recorder)
        passes = [recorder]
    else:
        untraced = measure_pass(workload, inputs, direct, seconds * TRACE_SHARE,
                                hard_cap_s=30.0)
        workload.final_checks(inputs, untraced)
        replayer = replay.ReplayExecutor(untraced.calls, workdir)
        traced = measure_pass(workload, inputs, replayer, max_ops=untraced.ops,
                              hard_cap_s=100.0)
        result = {
            "metrics": replay.layer_metrics(replayer, direct, untraced, traced),
            "detail": {},
        }
        passes = [untraced, traced]
    mismatches = [m for recorder in passes for m in recorder.mismatches]
    if trace:
        mismatches += replayer.mismatches
        if traced.failed != untraced.failed:
            mismatches.append(
                f"replay: {traced.failed} call(s) raised, recorded pass "
                f"{untraced.failed}: {traced.errors[:3]}"
            )
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": not mismatches,
        "attempted": passes[0].attempted,
        "failed": passes[0].failed,
        "mismatches": mismatches[:50],
        "errors": passes[0].errors,
        **result,
    }


def report(result: dict, spec: dict) -> str:
    """Human-readable lines (``workload metric value unit``), then the
    one-line JSON object for the spec's metrics."""
    key = "per_layer" if result["trace"] else "end_to_end"
    wanted = [entry["name"] for entry in spec[key]]
    lines = []
    for mismatch in result["mismatches"]:
        lines.append(f"MISMATCH {result['workload']}: {mismatch}")
    for error in result["errors"]:
        lines.append(f"FAILED {result['workload']}: {error}")
    for section in ("metrics", "detail"):
        for name, metric in sorted(result[section].items()):
            n = f" (n={metric['n']})" if metric.get("n") is not None else ""
            lines.append(
                f"{result['workload']} {name} {metric['value']:.6g} {metric['unit']}{n}"
            )
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{result['workload']}: metrics not measured: {missing}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"],
                   "unit": result["metrics"][name]["unit"]}
            for name in wanted
        },
    }
    lines.append(json.dumps(final))
    return "\n".join(lines)


def run_all(args, spec) -> int:
    """Every workload in its own subprocess, one after another."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    combined = {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        handle, path = tempfile.mkstemp(dir=WORKDIR, suffix=".json")
        os.close(handle)
        try:
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", entry["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--json", path],
                check=False,
            )
            status = status or completed.returncode
            text = Path(path).read_text()
            if text:
                combined["workloads"].update(json.loads(text)["workloads"])
        finally:
            os.unlink(path)
    if args.json:
        Path(args.json).write_text(json.dumps(combined, indent=1, sort_keys=True))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", help="write the full result record here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    workload = workloads.WORKLOADS[args.workload]()
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    text = report(result, spec)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
             "workloads": {workload.name: result}},
            indent=1, sort_keys=True,
        ))
    print(text, flush=True)
    return 0 if result["correct"] else 1


def pin_hash_seed(argv) -> None:
    """Re-execute this script with ``PYTHONHASHSEED`` set from ``--seed``,
    unless it already is.

    String hashes decide the iteration order of the library's sets and
    dicts, and with it the cost of set-up and queries.  With a random hash
    seed per process, the set-up time of one seed spread 16% over five
    runs; with the hash seed fixed, 4%.
    """
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seed", type=int, default=1)
    wanted = str(parser.parse_known_args(argv)[0].seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": wanted})


if __name__ == "__main__":
    pin_hash_seed(sys.argv[1:])
    sys.exit(main())
