"""Process-wide metrics registry: counters, gauges, histograms, probes.

Before this module, runtime statistics were scattered: LRU hit/miss
counters lived on :class:`~repro.perf.cache.CacheStats` objects, extent
pulls on :class:`~repro.obda.evaluation.MappingExtents`, retry attempts
and fallback metadata were only visible in exceptions and
:class:`~repro.runtime.fallback.ChainResult` objects.  The
:class:`MetricsRegistry` unifies them behind one ``snapshot()`` /
``reset()`` surface:

* **counters** — monotone event counts (``runtime.retry.attempts``,
  ``obda.extents.pulls``, ``runtime.budget.expired``);
* **gauges** — last-write-wins values;
* **histograms** — count/total/min/max of observed samples (elapsed
  seconds from the monotonic clock — never wall-clock timestamps, so
  snapshots are comparable across runs and machines);
* **probes** — callables polled at snapshot time, used to pull live
  external state (e.g. the aggregated statistics of every live
  :class:`~repro.perf.cache.CacheStats`) into the same snapshot without
  putting a registry update on the cache hot path.

Naming scheme (see DESIGN.md): dot-separated ``component.object.event``
paths, lower-case, no wall-clock or per-run material in the name — a
metric name identifies *what* is counted, never *when*.

The virtual ABox (:mod:`repro.obda.evaluation`) counts its refresh work:

* ``obda.extents.pulls`` — extents pulled in full through the mappings
  (first use, or a refresh that could take no delta);
* ``obda.extents.delta_pulls`` — refreshes that joined an extent's
  mapping sources over the rows appended to their tables only;
* ``obda.evaluation.index_builds`` — join indexes of extents built in
  full;
* ``obda.evaluation.index_extends`` — join indexes of extents extended
  by the rows appended since they were stamped instead of rebuilt;
* ``obda.evaluation.derivations`` — Presto's derived extents derived in
  full from their rules (first use, or a base extent's table replaced);
* ``obda.evaluation.derived_deltas`` — Presto's derived extents grown by
  the projections of the rows their base extents appended instead of
  derived again.

The source tables count the hash indexes the SQL join probes
(:meth:`repro.obda.sql.table.Table.index`):

* ``obda.sql.index_builds`` — table indexes built in full;
* ``obda.sql.index_extends`` — table indexes extended by the rows
  appended since they were stamped instead of rebuilt.

The cost-based planner's counters (``obda.planner.*``) move only under
the benchmark's traced replay, which still plans with
:mod:`repro.obda.sql.planner`; no query path of
:class:`~repro.obda.system.OBDASystem` runs the planner.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

#: Declared lock-acquisition order (outermost first): ``reset()`` nests
#: the per-instrument leaf locks inside the registry lock.  No instrument
#: method ever acquires the registry lock, so the order is acyclic.
_LOCK_ORDER = ("self._lock", "counter._lock", "histogram._lock")

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
]


class Counter:
    """A monotonically increasing event count.

    ``inc`` is a locked read-modify-write: ``self.value += amount``
    compiles to separate load and store bytecodes, so two unlocked
    threads can drop increments, and a counter bumped from the soak
    drill's worker threads would then undercount its events.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self.value += amount
            return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Any = None

    def set(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Count/total/min/max summary of observed samples."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # One lock for the whole update so count/total/min/max always
        # describe the same sample set (a torn update could report a
        # mean outside [min, max]).
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            count, total = self.count, self.total
            minimum, maximum = self.min, self.max
        return {
            "count": count,
            "total": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "min": round(minimum, 6) if minimum is not None else None,
            "max": round(maximum, 6) if maximum is not None else None,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4f})"


class MetricsRegistry:
    """A named family of counters, gauges, histograms and probes.

    Instruments are created on first use (``registry.counter(name)``),
    so call sites never need registration boilerplate; creation is
    locked on the registry, updates are locked per-instrument (each
    counter/histogram owns a leaf lock), and snapshots copy the
    instrument tables before iterating, so a hammering workload can
    read and write metrics concurrently without losing events.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._probes: Dict[str, Callable[[], Dict[str, object]]] = {}

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name))
        return instrument

    def register_probe(
        self, name: str, probe: Callable[[], Dict[str, object]]
    ) -> None:
        """Poll *probe* at snapshot time and merge its dict under *name*."""
        with self._lock:
            self._probes[name] = probe

    # -- snapshot / reset ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything the registry knows, as one JSON-serializable dict."""
        with self._lock:
            # Instrument creation mutates these dicts; snapshot the item
            # lists so a concurrent first-use can't resize mid-iteration.
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            probes = sorted(self._probes.items())
        result: Dict[str, object] = {
            "counters": {
                name: counter.value for name, counter in counters if counter.value
            },
            "gauges": {name: gauge.value for name, gauge in gauges},
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in histograms
                if histogram.count
            },
        }
        for name, probe in probes:
            try:
                result[name] = probe()
            except Exception as error:  # a broken probe must not break snapshots
                result[name] = {"probe_error": f"{type(error).__name__}: {error}"}
        return result

    def reset(self) -> None:
        """Zero every instrument (probes are external state, left alone)."""
        with self._lock:
            for counter in self._counters.values():
                with counter._lock:
                    counter.value = 0
            for gauge in self._gauges.values():
                gauge.value = None
            for histogram in self._histograms.values():
                with histogram._lock:
                    histogram.count = 0
                    histogram.total = 0.0
                    histogram.min = histogram.max = None

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counter(s), "
            f"{len(self._gauges)} gauge(s), {len(self._histograms)} histogram(s))"
        )


_GLOBAL: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def global_metrics() -> MetricsRegistry:
    """The process-wide registry the instrumented stack reports into.

    On first use it registers the ``perf.caches`` probe, which
    aggregates every live :class:`~repro.perf.cache.CacheStats` by cache
    name — so one snapshot covers LRU caches, retry/fallback/budget
    counters and evaluation statistics together.
    """
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                registry = MetricsRegistry()
                from ..perf.cache import live_cache_stats

                registry.register_probe("perf.caches", live_cache_stats)
                _GLOBAL = registry
    return _GLOBAL
