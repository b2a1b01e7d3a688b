"""Subsumption pruning of rewriting outputs, with statistics.

PerfectRef's union grows multiplicatively with the concept/role
hierarchy, and many of the produced disjuncts are *redundant*: whenever
a kept disjunct maps homomorphically into another one, the latter's
answers are already contained in the former's, so the subsumed disjunct
only adds join work and SQL text (Gottlob et al.: redundant-disjunct
elimination dominates end-to-end rewriting cost).

:func:`prune_ucq` is :func:`repro.obda.queries.minimize_ucq` — the one
shortest-first keeper loop, with its predicate-set prefilter (a keeper
can only map into a disjunct whose predicate set contains the keeper's,
so hopeless pairs never enter the exponential matcher) — plus a
:class:`PruneResult` carrying before/after disjunct counts, which the
perf-report harness and ``BENCH_perf.json`` surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obda.queries import UnionQuery, minimize_ucq

__all__ = ["PruneResult", "prune_ucq"]


@dataclass
class PruneResult:
    """A pruned UCQ plus how much the pruning shrank it."""

    ucq: UnionQuery
    before: int
    after: int

    @property
    def dropped(self) -> int:
        return self.before - self.after

    def as_dict(self) -> dict:
        return {"before": self.before, "after": self.after, "dropped": self.dropped}


def prune_ucq(ucq: UnionQuery) -> PruneResult:
    """Drop disjuncts subsumed by another disjunct; report the shrinkage.

    Certain answers are preserved: every dropped disjunct has a kept
    disjunct homomorphically mapping into it, so its answer set is a
    subset of the keeper's (asserted property-based in the test suite).
    """
    pruned = minimize_ucq(ucq)
    return PruneResult(pruned, len(ucq.disjuncts), len(pruned.disjuncts))
