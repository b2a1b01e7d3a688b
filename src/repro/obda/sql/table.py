"""Tables of the in-memory relational engine.

The OBDA data layer (paper §1: "the data stored at the sources") is
simulated by a small relational engine: named tables with named columns,
rows as tuples of Python scalars.  It is deliberately schema-light — the
engine exists to exercise mapping unfolding and rewriting evaluation, not
to be a DBMS.

Two cells are equal iff their string forms are equal (:func:`join_key`),
and a table keeps lazily built hash indexes on that identity, one per
tuple of key positions (:meth:`Table.index`), which every reader of the
table shares.

Tables are append-only, so what a reader computed from one stays valid
while it only grows.  Every such reader (indexes, mapped extents, cached
answers, the sqlite replica) asks one rule: :meth:`Table.stamp` and
:meth:`Table.appended`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ...errors import MappingError
from ...obs.metrics import global_metrics
from ...obs.trace import current_tracer
from ...runtime.budget import Budget

__all__ = ["Stamp", "Table", "ended", "grown_index", "grown_tables", "join_key"]

Row = Tuple[object, ...]
#: join key -> the rows carrying it, in table order
Index = Dict[Tuple[str, ...], List[Row]]


def join_key(values) -> Tuple[str, ...]:
    """The identity key of a tuple of cells: each cell's string form."""
    return tuple(
        value if isinstance(value, str) else str(value) for value in values
    )


class Stamp(NamedTuple):
    """What a reader consumed of a table (:meth:`Table.stamp`)."""

    generation: int
    count: int
    last: object


def grown_index(
    index: Index,
    rows: Iterable[Row],
    positions: Tuple[int, ...],
    budget: Optional[Budget],
) -> Index:
    """*index* plus *rows*, copy-on-write: a new dict whose touched
    buckets are new lists, so a reader holding *index* never sees it
    change."""
    grown = dict(index)
    for row in rows:
        if budget is not None:
            budget.tick()
        key = join_key([row[i] for i in positions])
        bucket = grown.get(key)
        if bucket is None or bucket is index.get(key):
            bucket = grown[key] = list(bucket or ())
        bucket.append(row)
    return grown


class Table:
    """A named relation with a fixed column list and append-only rows."""

    def __init__(self, name: str, columns: Sequence[str], rows: Iterable[Sequence] = ()):
        if len(set(columns)) != len(columns):
            raise MappingError(f"duplicate column names in table {name!r}: {columns}")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self._position: Dict[str, int] = {
            column: index for index, column in enumerate(self.columns)
        }
        self.rows: List[Row] = []
        #: serializes inserts so the row append and its generation bump
        #: are one atomic step (readers iterate the append-only list).
        self._lock = threading.Lock()
        #: mutation counter; virtual-extent caches key their validity on it
        self.generation = 0
        #: the databases holding this table, each bumped by every insert
        #: (weak: a table never keeps a database alive)
        self._databases: Tuple["weakref.ref", ...] = ()
        #: key positions -> (stamp, index); see :meth:`index`
        self._indexes: Dict[Tuple[int, ...], Tuple[Stamp, Index]] = {}
        for row in rows:
            self.insert(row)

    def insert(self, row: Sequence) -> None:
        if len(row) != len(self.columns):
            raise MappingError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"({len(self.columns)} columns)"
            )
        with self._lock:
            self.rows.append(tuple(row))
            self.generation += 1
            databases = self._databases
        # After the append and outside this lock (locks stay leaves): a
        # reader that sees a database's new generation sees the row.
        for ref in databases:
            database = ref()
            if database is not None:
                database._bump()

    def _attach(self, database) -> None:
        """Notify *database* of every later insert (see Database.add_table)."""
        with self._lock:
            self._databases += (weakref.ref(database),)

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.insert(row)

    def stamp(self) -> Stamp:
        """The table as a reader starts to read it: the generation
        first, then the row count and the last row.  A row appended
        between the two reads is counted under the older generation, so
        a reader that covers the counted rows never skips a row."""
        generation = self.generation
        rows = self.rows
        count = len(rows)
        return Stamp(generation, count, rows[count - 1] if count else None)

    def appended(self, since: Stamp, now: Stamp) -> Optional[Sequence[Row]]:
        """The rows appended between the stamps *since* and *now*:
        ``()`` when the generation held, None when a row *since* counted
        was removed or replaced out of band.  A reader that gets rows
        stamps itself *now*; one that gets none keeps *since*."""
        if since.generation == now.generation:
            return ()
        rows = self.rows
        count = since.count
        if now.count < count or (count and rows[count - 1] is not since.last):
            return None
        return rows[count : now.count]

    def index(
        self, positions: Tuple[int, ...], budget: Optional[Budget] = None
    ) -> Index:
        """The rows bucketed by :func:`join_key` of their cells at
        *positions*, built on first use and shared by every reader.

        An index is stamped with the rows it holds (:meth:`stamp`).  It
        is served as it is while no row was appended since, extended by
        the appended rows, copy-on-write, when the table only grew, and
        otherwise rebuilt.  Both tick *budget* and install the result
        only on completion, so a timeout leaves the previous index in
        place.
        """
        now = self.stamp()
        with self._lock:
            indexes = self._indexes
            entry = indexes.get(positions)
        added = None if entry is None else self.appended(entry[0], now)
        if added is not None and not added:
            return entry[1]
        if added is not None:
            index = grown_index(entry[1], added, positions, budget)
            global_metrics().counter("obda.sql.index_extends").inc()
        else:
            with current_tracer().span("index-build") as span:
                index = grown_index({}, self.rows[: now.count], positions, budget)
                span.annotate(
                    table=self.name, positions=list(positions), rows=now.count
                )
            global_metrics().counter("obda.sql.index_builds").inc()
        with self._lock:
            # Install only over the entry this work started from, in the
            # dict it was read from: invalidate_indexes() swaps the dict,
            # and a concurrent call may have installed a newer stamp.
            current = self._indexes
            if current is indexes and current.get(positions) is entry:
                self._indexes[positions] = (now, index)
        return index

    def invalidate_indexes(self) -> None:
        """Drop every index: for rows edited in place, which no stamp sees."""
        with self._lock:
            self._indexes = {}

    def column_index(self, column: str) -> int:
        try:
            return self._position[column]
        except KeyError:
            raise MappingError(
                f"table {self.name!r} has no column {column!r} "
                f"(columns: {', '.join(self.columns)})"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {list(self.columns)}, {len(self.rows)} rows)"


#: a table one join read: ``(name, table, start, end)``, its stamps
#: before the join read any of its rows and after the join
Read = Tuple[str, Table, Stamp, Stamp]


def ended(started: Dict[str, Tuple[Table, Stamp]]) -> Tuple[Read, ...]:
    """*started* (name -> table and start stamp) stamped after the join."""
    return tuple(
        [(name, table, start, table.stamp()) for name, (table, start) in started.items()]
    )


def grown_tables(
    database, reads: Sequence[Read]
) -> Optional[Tuple[Dict[str, Sequence[Row]], Dict[str, Tuple[Table, Stamp]]]]:
    """The rows appended to the tables of *reads* since their start
    stamps, by name (none for a table that gained none), and the tables
    and stamps a join over them starts from; None when *database* holds
    another table under a name, or a row the join may have read (up to
    its end stamp) was removed or replaced."""
    grown: Dict[str, Sequence[Row]] = {}
    started: Dict[str, Tuple[Table, Stamp]] = {}
    for name, table, start, end in reads:
        now = table.stamp()
        added = table.appended(start, now)
        if added is None or table.appended(end, now) is None or database.table(name) is not table:
            return None
        if added:
            grown[name] = added
            start = now
        started[name] = (table, start)
    return grown, started
