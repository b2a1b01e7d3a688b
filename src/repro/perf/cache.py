"""Bounded LRU caches with hit/miss/eviction statistics.

Every hot-path cache in the stack (classification memoization, canonical
rewriting cache, unfolding cache, answer cache) is an :class:`LRUCache`:
bounded, observable, explicitly invalidatable — and **thread-safe**: one
system answers queries from many threads at once (``repro soak`` drives
it so), so every mutation happens under a per-cache ``RLock`` and every
statistics update is atomic.

Budget discipline (the resilience contract of
:mod:`repro.runtime.budget`): callers only ever :meth:`LRUCache.put`
*completed* results — a computation aborted by a
:class:`~repro.errors.TimeoutExceeded` propagates before the store, so a
timed-out step can never poison a shared cache with a partial result.
:class:`ClassificationCache` encodes that pattern for classification and
additionally runs **single-flight**: N threads first-touching the same
TBox fingerprint classify it once and share the result.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Tuple

from .fingerprint import tbox_fingerprint

__all__ = [
    "CacheStats",
    "LRUCache",
    "ClassificationCache",
    "format_stats_line",
    "live_cache_stats",
    "shared_classification_cache",
]

#: Every live CacheStats object, so one metrics snapshot can aggregate the
#: statistics of every cache in the process (see :func:`live_cache_stats`).
#: Guarded by _LIVE_STATS_LOCK: WeakSet mutation/iteration is not atomic,
#: and registration races with snapshotting under concurrent cache use.
_LIVE_STATS: "weakref.WeakSet[CacheStats]" = weakref.WeakSet()
_LIVE_STATS_LOCK = threading.Lock()


@dataclass(eq=False)
class CacheStats:
    """Observable counters of one cache.

    ``eq=False`` keeps the default identity hash so instances can sit in
    the process-wide weak set that feeds the metrics snapshot.  Counter
    updates go through the ``record_*`` methods, which are atomic (a
    per-instance lock), so statistics stay exact — not merely
    approximate — under concurrent cache traffic, and
    :meth:`snapshot` is consistent even while the cache is being
    written.
    """

    name: str = "cache"
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        with _LIVE_STATS_LOCK:
            _LIVE_STATS.add(self)

    # -- atomic updates ------------------------------------------------------

    def record_hit(self, count: int = 1) -> None:
        with self._lock:
            self.hits += count

    def record_miss(self, count: int = 1) -> None:
        with self._lock:
            self.misses += count

    def record_eviction(self, count: int = 1) -> None:
        with self._lock:
            self.evictions += count

    def record_invalidation(self, count: int = 1) -> None:
        with self._lock:
            self.invalidations += count

    # -- reads ---------------------------------------------------------------

    @property
    def lookups(self) -> int:
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 when the cache was never read."""
        with self._lock:
            hits, misses = self.hits, self.misses
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> Tuple[int, int, int, int]:
        """A consistent ``(hits, misses, evictions, invalidations)`` read."""
        with self._lock:
            return (self.hits, self.misses, self.evictions, self.invalidations)

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = self.invalidations = 0

    def to_dict(self) -> Dict[str, object]:
        hits, misses, evictions, invalidations = self.snapshot()
        lookups = hits + misses
        return {
            "name": self.name,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "invalidations": invalidations,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }

    def __str__(self) -> str:
        return format_stats_line(self.to_dict())


def format_stats_line(stats: Mapping[str, object]) -> str:
    """The one canonical rendering of a cache-stats dict.

    Shared by ``CacheStats.__str__`` and the ``repro explain`` metrics
    section, so every surface prints cache statistics identically.
    """
    hits = int(stats.get("hits", 0))
    lookups = hits + int(stats.get("misses", 0))
    rate = stats.get("hit_rate")
    if rate is None:
        rate = hits / lookups if lookups else 0.0
    return (
        f"{stats.get('name', 'cache')}: {stats.get('hits', 0)} hit(s), "
        f"{stats.get('misses', 0)} miss(es), "
        f"{stats.get('evictions', 0)} eviction(s), hit rate {float(rate):.1%}"
    )


def live_cache_stats() -> Dict[str, Dict[str, object]]:
    """Statistics of every live cache, aggregated by cache name.

    Several systems may each hold a ``"rewriting"`` cache; the snapshot
    sums their counters under one key so the metrics surface reports the
    process-wide picture.  Registered as the ``perf.caches`` probe of
    :func:`repro.obs.metrics.global_metrics`.  Safe to call while caches
    are being written: registration is locked and each cache's counters
    are read as one consistent snapshot.
    """
    with _LIVE_STATS_LOCK:
        live = list(_LIVE_STATS)
    aggregated: Dict[str, Dict[str, object]] = {}
    for stats in live:
        entry = aggregated.get(stats.name)
        if entry is None:
            entry = aggregated[stats.name] = {
                "name": stats.name,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "invalidations": 0,
                "caches": 0,
            }
        hits, misses, evictions, invalidations = stats.snapshot()
        entry["hits"] += hits
        entry["misses"] += misses
        entry["evictions"] += evictions
        entry["invalidations"] += invalidations
        entry["caches"] += 1
    for entry in aggregated.values():
        lookups = entry["hits"] + entry["misses"]
        entry["hit_rate"] = round(entry["hits"] / lookups, 4) if lookups else 0.0
    return aggregated


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe: every operation (including the recency bump on
    :meth:`get`) happens under one per-cache ``RLock``, so concurrent
    readers and writers can never corrupt the ``OrderedDict`` or lose an
    eviction.  The lock is a leaf — no callback runs under it.

    >>> cache = LRUCache(maxsize=2, name="demo")
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None   # evicted: "a" was the least recently used
    True
    >>> cache.get("c")
    3
    >>> cache.stats.evictions
    1
    """

    def __init__(self, maxsize: int = 128, name: str = "cache"):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats(name=name)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None, record: bool = True) -> Any:
        """The value under *key* (*default* when absent), made the most
        recently used.  With ``record=False`` the lookup counts as neither
        hit nor miss: for a caller that first checks the value is still
        current and records the outcome itself on :attr:`stats`."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                if record:
                    self.stats.record_miss()
                return default
            self._entries.move_to_end(key)
        if record:
            self.stats.record_hit()
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Read without touching recency or statistics (for assertions)."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        self._store(key, value, False, None)

    def replace(self, key: Hashable, expected: Any, value: Any) -> bool:
        """Store *value* under *key* only if *key* still holds *expected*
        (compared by identity; None when absent), so a result computed
        from one entry never overwrites a newer one.  True when stored."""
        return self._store(key, value, True, expected)

    def _store(self, key: Hashable, value: Any, check: bool, expected: Any) -> bool:
        evicted = 0
        with self._lock:
            if check and self._entries.get(key) is not expected:
                return False
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.stats.record_eviction(evicted)
        return True

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        self.stats.record_invalidation()
        return dropped

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.stats.name!r}, {len(self)}/{self.maxsize}, "
            f"hit rate {self.stats.hit_rate:.1%})"
        )


class ClassificationCache:
    """Classification memoization keyed by TBox fingerprint.

    Systems sharing a TBox — or holding structurally equal copies of one
    — reuse the same :class:`~repro.core.classify.Classification` object
    instead of re-running the classifier per system or per query.  The
    key includes ``include_unsat`` because the Φ_T-only ablation computes
    a genuinely different (smaller) classification.

    Concurrency: lookups and stores go through the thread-safe
    :class:`LRUCache`, and cold computations run **single-flight** — N
    threads first-touching the same fingerprint run the classifier once
    and share the result (``perf.classification.computes`` counts actual
    classifier runs; ``perf.classification.shared`` counts followers that
    piggy-backed).  A classification aborted by a budget raises *before*
    the store, so timeouts (e.g. inside a
    :class:`~repro.runtime.fallback.FallbackChain` slice) never leave a
    partial entry behind; and a TBox mutated *while* being classified is
    never stored (the generation is re-checked), so the shared cache
    cannot be poisoned by a torn read.
    """

    def __init__(self, maxsize: int = 32):
        from ..runtime.concurrency import SingleFlight

        self._cache = LRUCache(maxsize=maxsize, name="classification")
        self._flights = SingleFlight()

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def classify(self, tbox, classifier=None, watch=None):
        from ..core.classifier import GraphClassifier
        from ..obs.metrics import global_metrics

        if classifier is None:
            classifier = GraphClassifier()
        generation = getattr(tbox, "generation", 0)
        key = self.key_for(tbox, include_unsat=classifier.include_unsat)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def compute():
            global_metrics().counter("perf.classification.computes").inc()
            classification = classifier.classify(tbox, watch=watch)
            # Store only when the TBox is still the one we fingerprinted;
            # a concurrent mutation would key a torn result under a stale
            # fingerprint and poison every sharer of the cache.
            if getattr(tbox, "generation", 0) == generation:
                self._cache.put(key, classification)
            return classification

        classification, leader = self._flights.do(key, compute)
        if not leader:
            global_metrics().counter("perf.classification.shared").inc()
        return classification

    def key_for(self, tbox, include_unsat: bool = True) -> Tuple[str, bool]:
        return (tbox_fingerprint(tbox), include_unsat)

    def __contains__(self, key) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def invalidate(self) -> int:
        return self._cache.invalidate()


#: Process-wide classification cache: distinct OBDA systems over the same
#: ontology classify it exactly once.
_SHARED_CLASSIFICATIONS = ClassificationCache()


def shared_classification_cache() -> ClassificationCache:
    """The process-wide default :class:`ClassificationCache`."""
    return _SHARED_CLASSIFICATIONS
