"""Table/column statistics for the SQL planner, and the hash join index.

A cost-based planner needs *numbers* from the storage layer: how many
rows, how many distinct values per column — the inputs of the classic
``|R ⋈ S| = |R||S| / max(V(R,a), V(S,b))`` estimate.
:class:`StatisticsCatalog` caches them per table and revalidates them
against the table's generation counter on every access — the same
invalidation discipline the extent/index caches of
:mod:`repro.obda.evaluation` already use, so statistics can never be
served for data that has since changed shape.  The *access paths* (hash
indexes on join-key columns, so an equi-join probes instead of
scanning) live on the table itself: :meth:`~repro.obda.sql.table.Table.index`.

Two cells are equal iff their string forms are equal — the identity an
IRI template already gives individuals (``person/{id}`` renders ``1``
and ``"1"`` to one IRI, ``1.0`` to another).  :func:`join_key` computes
it for a tuple of cells; the SQL layer and the KB executors key every
hash index and duplicate check on it and compare single cells by
``str()``, the same relation.  It is transitive, so :class:`JoinIndex`
is a plain dict of buckets.

Concurrency follows the copy-on-write idiom of
:meth:`repro.obda.sql.table.Table.index`: bookkeeping happens
under a small lock, construction runs outside it, and a finished
statistic is installed only if the generation it was computed for is
still current.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...obs.metrics import global_metrics
from ...runtime.budget import Budget
from .database import Database
from .table import Row, join_key

__all__ = [
    "ColumnStatistics",
    "TableStatistics",
    "StatisticsCatalog",
    "JoinIndex",
    "join_key",
]


class JoinIndex:
    """Rows bucketed by :func:`join_key` of their join values."""

    __slots__ = ("_buckets",)

    def __init__(self):
        self._buckets: Dict[Tuple[str, ...], List[Row]] = {}

    def add(self, values, row: Row) -> None:
        self._buckets.setdefault(join_key(values), []).append(row)

    def probe(self, values) -> List[Row]:
        """All rows whose join values have the string forms of *values*."""
        return self._buckets.get(join_key(values), [])

    def contains(self, values) -> bool:
        """True iff :meth:`probe` would return at least one row."""
        return join_key(values) in self._buckets


@dataclass(frozen=True)
class ColumnStatistics:
    """Distinct-value count of one column (over string-normalized values)."""

    name: str
    distinct: int


@dataclass(frozen=True)
class TableStatistics:
    """Cardinality profile of one table at one generation."""

    table: str
    row_count: int
    columns: Tuple[ColumnStatistics, ...]

    def distinct(self, column: str) -> Optional[int]:
        """Distinct values in *column* (plain name), or None if unknown."""
        for stats in self.columns:
            if stats.name == column:
                return stats.distinct
        return None

    def selectivity(self, column: str) -> float:
        """Estimated fraction of rows surviving ``column = const``."""
        if self.row_count == 0:
            return 0.0
        distinct = self.distinct(column)
        if not distinct:
            return 0.1  # unknown column: a conventional guess
        return 1.0 / distinct

    def as_dict(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "rows": self.row_count,
            "distinct": {stats.name: stats.distinct for stats in self.columns},
        }


class StatisticsCatalog:
    """Per-table statistics over one :class:`Database`.

    The cache is keyed by ``Table.generation``; a stale entry is
    recomputed on the next access, so callers never invalidate manually
    (``invalidate`` exists for out-of-band mutation only, mirroring the
    extent provider).  One catalog is meant to be shared by all plans
    over one database (:meth:`~repro.obda.system.OBDASystem.statistics_catalog`).
    """

    def __init__(self, database: Database):
        self.database = database
        self._lock = threading.Lock()
        self._stats: Dict[str, Tuple[int, TableStatistics]] = {}

    def invalidate(self) -> None:
        with self._lock:
            self._stats = {}

    def statistics(
        self, table_name: str, budget: Optional[Budget] = None, table=None
    ) -> TableStatistics:
        """Row count + per-column distinct counts, cached per generation.

        Callers holding a resolved :class:`Table` (e.g. fetched through a
        retry-wrapped database) pass it as *table* so the catalog does not
        re-resolve it through the raw, unwrapped access path.
        """
        if table is None:
            table = self.database.table(table_name)
        generation = table.generation
        with self._lock:
            entry = self._stats.get(table_name)
            if entry is not None and entry[0] == generation:
                return entry[1]
        rows = list(table.rows)
        seen: List[set] = [set() for _ in table.columns]
        for row in rows:
            if budget is not None:
                budget.tick()
            for position, value in enumerate(row):
                seen[position].add(value if isinstance(value, str) else str(value))
        stats = TableStatistics(
            table_name,
            len(rows),
            tuple(
                ColumnStatistics(column, len(values))
                for column, values in zip(table.columns, seen)
            ),
        )
        global_metrics().counter("obda.planner.stats_refreshes").inc()
        with self._lock:
            # Install only if no insert landed while we were scanning.
            if table.generation == generation:
                self._stats[table_name] = (generation, stats)
        return stats

    def row_count(self, table_name: str, budget: Optional[Budget] = None) -> int:
        return self.statistics(table_name, budget=budget).row_count
