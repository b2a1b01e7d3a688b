"""Nearest-rank percentiles.

Used by ``run.py`` (latency percentiles within a run), ``replay.py``
(per-layer medians) and ``compare.py`` (medians and quartiles across
runs).  A latency percentile is only reported when at least ten samples
lie beyond it, so a p90 needs 100 samples and a p50 needs 20.
"""

from __future__ import annotations

import math
from typing import List, Sequence

#: samples that must lie strictly beyond a reported percentile
TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """Raised when a percentile is asked of a sample too small to carry it."""


def min_samples(q: float) -> int:
    """The smallest sample with ``TAIL_SAMPLES`` values beyond percentile *q*."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q / 100.0) - 1e-9)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-th percentile: the ``ceil(q/100 * n)``-th
    smallest value (the smallest value for ``q == 0``)."""
    if not values:
        raise TooFewSamples("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank`, refusing samples with too thin a tail."""
    needed = min_samples(q)
    if len(values) < needed:
        raise TooFewSamples(
            f"p{q:g} needs at least {needed} samples, got {len(values)}"
        )
    return nearest_rank(values, q)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` by nearest rank (no tail requirement)."""
    return [nearest_rank(values, q) for q in (25, 50, 75)]


def iqr(values: Sequence[float]) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 50)
