#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by workload.

Usage::

    python3 benchmarks/harness/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by ``run.py --json`` or
directories of them.  Runs pair up in file-name order, so name them so
that pair *i* is the *i*-th parent and change run (run at least ten
pairs, alternating which side runs first).

For every (metric, workload) pair the report shows both medians and
quartiles (nearest rank), the bound and a verdict:

* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the parent's own spread (IQR / median) exceeds the
  bound, so a regression within it could not be seen, and not every
  change run reads better than every parent run;
* ``too few pairs``: neither of the above, but the two sets differ in
  size or hold fewer than ten runs, too few to tell a gain from chance;
* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``same``: none of the above.

The bounds are those of ``BENCHMARK.json`` for the metrics it names, and
``GROUP_BOUND`` for each latency group's median (``presto.p50_ms``,
``answer-hit.p50_ms``, ``classify.p50_ms``, ...), which ``BENCHMARK.json``
cannot name because the groups differ by workload.  The groups' p90s
(their run-to-run spread exceeds 10%) and the per-layer metrics of traced
runs (those ``BENCHMARK.json`` lists, and every other ``*_ms`` time) have
no bound: for them ``worse`` is the ``better`` rule reversed.  A higher
``failed_ratio`` on any workload is flagged.  The exit status is 1 when
a bounded metric is ``worse`` or a failed ratio rose.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import percentiles

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9
#: pairs a win-based verdict needs
MIN_PAIRS = 10
#: allowed worsening of a latency group's p50
GROUP_BOUND = 0.10
#: detail entries that describe the host, not the program
NOT_COMPARED = {"host.speed"}


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(file.read_text()) for file in files]


def collect(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values``, one value per run."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for section in ("metrics", "detail"):
                for name, metric in result.get(section, {}).items():
                    values.setdefault((workload, name), []).append(metric["value"])
    return values


def cell(values: List[float]) -> str:
    q1, q2, q3 = percentiles.quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] (n={len(values)})"


def verdict(parent: List[float], change: List[float], lower_better: bool,
            bound: Optional[float]) -> str:
    sign = 1.0 if lower_better else -1.0
    q1, p_med, q3 = percentiles.quartiles(parent)
    spread = q3 - q1
    gap = sign * (p_med - percentiles.median(change))  # positive: the change is better
    if bound is not None and p_med:
        if -gap / abs(p_med) > bound:
            return "worse"
        separated = all(sign * (p - c) > 0 for p in parent for c in change)
        if spread / abs(p_med) > bound and not separated:
            return "unresolved"
    if len(parent) != len(change) or len(parent) < MIN_PAIRS:
        return "too few pairs"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= WIN_SHARE * len(pairs) and gap > spread:
        return "better"
    if bound is None and losses >= WIN_SHARE * len(pairs) and -gap > spread:
        return "worse"
    return "same"


def gate(name: str, spec: dict) -> Tuple[Optional[bool], Optional[float]]:
    """``(lower is better, bound)`` of a metric; ``(None, None)`` when it
    is not compared."""
    for entry in spec["end_to_end"]:
        if entry["name"] == name:
            return entry["better"] == "lower", entry["bound"]
    for entry in spec["per_layer"]:
        if entry["name"] == name:
            return entry["better"] == "lower", None
    if name.endswith(".p50_ms"):
        return True, GROUP_BOUND
    if name.endswith("_ms"):  # a group's p90, or a per-layer time
        return True, None
    return None, None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = collect(load_runs(Path(argv[0])))
    change = collect(load_runs(Path(argv[1])))
    status = 0
    print(f"{'workload':15s} {'metric':28s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'bound':>6s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        p_values, c_values = parent[key], change[key]
        if name == "failed_ratio":
            if statistics.mean(c_values) > statistics.mean(p_values):
                print(f"{workload:15s} FLAG: failed_ratio rose "
                      f"{statistics.mean(p_values):.4f} -> {statistics.mean(c_values):.4f}")
                status = 1
            continue
        lower_better, bound = gate(name, spec)
        if lower_better is None or name in NOT_COMPARED:
            continue
        result = verdict(p_values, c_values, lower_better, bound)
        if result == "worse" and bound is not None:
            status = 1
        print(f"{workload:15s} {name:28s} {cell(p_values):>34s} {cell(c_values):>34s} "
              f"{'-' if bound is None else f'{bound:.0%}':>6s}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
