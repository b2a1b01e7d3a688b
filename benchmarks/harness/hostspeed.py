"""Scaling of measured times to a reference host speed.

The shared virtual machines this benchmark runs on change speed under
it: a fixed pure-Python loop runs up to twice as slow for stretches of a
fraction of a second to minutes, so whole runs of identical work differ
by up to 30%.  That swamps the 10% bounds the metrics are held to.

So a fixed probe (hashing, dict and set updates, string formatting and a
keyed sort: the kind of work the library does) runs before a timed call
whenever ``PROBE_INTERVAL_S`` have passed since the last one, and a time
measured now is multiplied by ``REFERENCE_S`` / (median of the last
``PROBES`` probes).  On the reference host at its usual speed the factor
is 1, so scaled times read as milliseconds on that host; when the host
slows, the probe and the calls lengthen together and the factor cancels
the slowdown.  A change to the library leaves the probe alone, so its
effect on the calls shows in full.

On the reference host, over runs whose unscaled throughput spread 16-30%
(IQR over median), the scaled throughput spread 1-4%.
"""

from __future__ import annotations

import collections
import gc
import statistics
import time
from typing import List

#: the probe's median duration on the reference host (a 2-vCPU virtual
#: machine, CPython 3.11) at the fastest speed it was seen to run, in seconds
REFERENCE_S = 0.0040
#: shortest time between two probes (a call longer than this runs
#: between two probes)
PROBE_INTERVAL_S = 0.05
#: probes whose median sets the current speed
PROBES = 5


def timed_probe() -> float:
    """Seconds the probe takes.  The collector is off meanwhile: a
    collection would scan the library's objects and tie the probe to the
    size of their heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        probe()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probe(iterations: int = 8000) -> int:
    """The fixed reference work; its duration measures the host's speed."""
    table = {}
    seen = set()
    total = 0
    for i in range(iterations):
        key = (i % 251, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(key)
        total += len(str(i))
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return total + len(ordered) + len(seen)


class HostSpeed:
    """The probe's recent durations, and the scaling they give."""

    def __init__(self):
        self._recent: collections.deque = collections.deque(maxlen=PROBES)
        self._last_probe = float("-inf")
        #: every probe duration of the pass, in seconds
        self.durations: List[float] = []

    def record(self, seconds: float) -> None:
        self._recent.append(seconds)
        self.durations.append(seconds)

    def tick(self) -> None:
        """Probe when ``PROBE_INTERVAL_S`` has passed since the last
        probe, or while fewer than ``PROBES`` probes were taken."""
        now = time.perf_counter()
        if now - self._last_probe < PROBE_INTERVAL_S and len(self._recent) == PROBES:
            return
        while True:
            self.record(timed_probe())
            if len(self._recent) == PROBES:
                break
        self._last_probe = time.perf_counter()

    def scale(self, seconds: float) -> float:
        """*seconds*, measured just now, at the reference host speed."""
        if len(self._recent) < PROBES:
            self.tick()
        return seconds * REFERENCE_S / statistics.median(self._recent)

    def relative(self) -> float:
        """The host's speed over the pass relative to the reference host
        (1 on the reference host, 0.8 on a host 20% slower)."""
        return REFERENCE_S / statistics.median(self.durations)
