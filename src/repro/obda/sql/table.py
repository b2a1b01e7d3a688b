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
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...errors import MappingError
from ...obs.metrics import global_metrics
from ...obs.trace import current_tracer
from ...runtime.budget import Budget

__all__ = ["Table", "grown_index", "join_key"]

Row = Tuple[object, ...]
#: join key -> the rows carrying it, in table order
Index = Dict[Tuple[str, ...], List[Row]]


def join_key(values) -> Tuple[str, ...]:
    """The identity key of a tuple of cells: each cell's string form."""
    return tuple(
        value if isinstance(value, str) else str(value) for value in values
    )


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
        #: key positions -> (generation, rows consumed, last consumed
        #: row, index); see :meth:`index`
        self._indexes: Dict[Tuple[int, ...], Tuple[int, int, object, Index]] = {}
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

    def index(
        self, positions: Tuple[int, ...], budget: Optional[Budget] = None
    ) -> Index:
        """The rows bucketed by :func:`join_key` of their cells at
        *positions*, built on first use and shared by every reader.

        An index is stamped the way a mapped extent stamps its tables:
        the generation first, then the rows consumed and the last of
        them.  While the generation holds it is served as it is; when
        the table only grew (the last consumed row is still in place) it
        is extended by the appended rows, copy-on-write, and otherwise
        rebuilt.  Both tick *budget* and install the result only on
        completion, so a timeout leaves the previous index in place.
        """
        generation = self.generation
        rows = self.rows
        consumed = len(rows)
        with self._lock:
            indexes = self._indexes
            entry = indexes.get(positions)
        if entry is not None and entry[0] == generation:
            return entry[3]
        if (
            entry is not None
            and entry[1] <= consumed
            and (not entry[1] or rows[entry[1] - 1] is entry[2])
        ):
            index = grown_index(
                entry[3], rows[entry[1] : consumed], positions, budget
            )
            global_metrics().counter("obda.sql.index_extends").inc()
        else:
            with current_tracer().span("index-build") as span:
                index = grown_index({}, rows[:consumed], positions, budget)
                span.annotate(
                    table=self.name, positions=list(positions), rows=consumed
                )
            global_metrics().counter("obda.sql.index_builds").inc()
        last = rows[consumed - 1] if consumed else None
        with self._lock:
            # Install only over the entry this work started from, in the
            # dict it was read from: invalidate_indexes() swaps the dict,
            # and a concurrent call may have installed a newer stamp.
            current = self._indexes
            if current is indexes and current.get(positions) is entry:
                self._indexes[positions] = (generation, consumed, last, index)
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
