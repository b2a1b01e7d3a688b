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
:meth:`Table.appended`.  A predicate's extent is served as a table too
(:class:`Extent`, an append-only table of distinct rows), so what is
computed from an extent follows the same rule.

A result computed by a join over such tables (a mapped or derived
extent, cached answers, a consistency check) is kept as one record,
:class:`Stamped`, and brought up to date by one routine,
:func:`refresh`: re-confirmed when nothing it read grew, extended by the
rows appended when every input only grew, computed in full otherwise.
"""

from __future__ import annotations

import threading
import weakref
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...errors import MappingError
from ...obs.metrics import global_metrics
from ...obs.trace import current_tracer
from ...runtime.budget import Budget

__all__ = [
    "AppendOnly",
    "Extent",
    "Stamp",
    "Stamped",
    "Table",
    "ended",
    "grown_index",
    "grown_tables",
    "join_key",
    "refresh",
]

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


class AppendOnly:
    """Rows that only grow: what a source :class:`Table` and a
    predicate's :class:`Extent` share.  Every reader of them asks one
    rule, :meth:`stamp` and :meth:`appended`, and probes the hash
    indexes every reader shares (:meth:`index`)."""

    #: the counters an index build and an index extension tick, and the
    #: attribute of the ``index-build`` span that names the rows
    _INDEX_COUNTERS = ("obda.sql.index_builds", "obda.sql.index_extends")
    _INDEX_LABEL = "table"

    def __init__(self, name: str, rows: List[Row]):
        self.name = name
        self.rows = rows
        #: serializes appends so the rows and their generation bump are
        #: one atomic step (readers iterate the append-only list)
        self._lock = threading.Lock()
        #: mutation counter, moved after the rows of each append
        self.generation = 0
        #: key positions -> (stamp, index); see :meth:`index`
        self._indexes: Dict[Tuple[int, ...], Tuple[Stamp, Index]] = {}

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
        ``()`` when both count the same rows under one generation, None
        when a row *since* counted was removed or replaced out of band.
        A stamp taken between an append and its generation bump counts
        the rows under the older generation, so the rows past *since*'s
        count are appended ones even when the generation held.  A reader
        that gets rows stamps itself *now*; one that gets none keeps
        *since*."""
        count = since.count
        if since.generation == now.generation and count == now.count:
            return ()
        rows = self.rows
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
            global_metrics().counter(self._INDEX_COUNTERS[1]).inc()
        else:
            with current_tracer().span("index-build") as span:
                index = grown_index({}, self.rows[: now.count], positions, budget)
                span.annotate(
                    **{self._INDEX_LABEL: self.name},
                    positions=list(positions),
                    rows=now.count,
                )
            global_metrics().counter(self._INDEX_COUNTERS[0]).inc()
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

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Table(AppendOnly):
    """A named relation with a fixed column list and append-only rows."""

    def __init__(self, name: str, columns: Sequence[str], rows: Iterable[Sequence] = ()):
        if len(set(columns)) != len(columns):
            raise MappingError(f"duplicate column names in table {name!r}: {columns}")
        super().__init__(name, [])
        self.columns: Tuple[str, ...] = tuple(columns)
        self._position: Dict[str, int] = {
            column: index for index, column in enumerate(self.columns)
        }
        #: the databases holding this table, each bumped by every insert
        #: (weak: a table never keeps a database alive)
        self._databases: Tuple["weakref.ref", ...] = ()
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

    def column_index(self, column: str) -> int:
        try:
            return self._position[column]
        except KeyError:
            raise MappingError(
                f"table {self.name!r} has no column {column!r} "
                f"(columns: {', '.join(self.columns)})"
            ) from None

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {list(self.columns)}, {len(self.rows)} rows)"


class Extent(AppendOnly):
    """A predicate's extent: append-only distinct rows.

    Rows join an extent only through :meth:`extend`, which checks them
    against the rows it holds and appends the new ones in one step under
    its lock, the generation moving after them as in
    :meth:`Table.insert`.  So stamps, :meth:`appended` and
    :meth:`index` read an extent as they read a source table; readers
    iterate the row list, and the membership set is only probed or
    copied under the lock (:meth:`members`).  Its
    indexes count as ``obda.evaluation.index_builds`` and
    ``obda.evaluation.index_extends``.
    """

    _INDEX_COUNTERS = ("obda.evaluation.index_builds", "obda.evaluation.index_extends")
    _INDEX_LABEL = "predicate"

    def __init__(self, predicate: str, rows: Iterable[Row] = ()):
        members = set(rows)
        super().__init__(predicate, list(members))
        self._members: Set[Row] = members

    def extend(self, rows: Iterable[Row]) -> List[Row]:
        """Append the rows of *rows* this extent lacks; the rows appended."""
        with self._lock:
            members = self._members
            added = []
            for row in rows:
                if row not in members:
                    members.add(row)
                    added.append(row)
            if added:
                self.rows.extend(added)
                self.generation += 1
        return added

    def members(self) -> Set[Row]:
        """The rows as a set of the caller's own, copied under the lock
        (a set copy hashes no row again)."""
        with self._lock:
            return set(self._members)

    def __contains__(self, row: Row) -> bool:
        return row in self._members


#: a table one join read: ``(key, table, start, end)``: what its reader
#: looks it up by (a source table's name, an extent's predicate and
#: arity), and its stamps before the join read any of its rows and after
#: the join
Read = Tuple[Hashable, AppendOnly, Stamp, Stamp]


def ended(started: Dict[Hashable, Tuple[AppendOnly, Stamp]]) -> Tuple[Read, ...]:
    """*started* (key -> table and start stamp) stamped after the join."""
    return tuple(
        [(key, table, start, table.stamp()) for key, (table, start) in started.items()]
    )


def grown_tables(
    lookup: Callable[[Hashable], AppendOnly], reads: Sequence[Read]
) -> Optional[
    Tuple[Dict[Hashable, Sequence[Row]], Dict[Hashable, Tuple[AppendOnly, Stamp]]]
]:
    """The rows appended to the tables of *reads* since their start
    stamps, by key (none for a table that gained none), and the tables
    and stamps a join over them starts from; None when ``lookup(key)``
    serves another table now, or a row the join may have read (up to
    its end stamp) was removed or replaced.  Each table is looked up
    before it is stamped: an extent provider brings an extent up to
    date in the lookup."""
    grown: Dict[Hashable, Sequence[Row]] = {}
    started: Dict[Hashable, Tuple[AppendOnly, Stamp]] = {}
    for key, table, start, end in reads:
        if lookup(key) is not table:
            return None
        now = table.stamp()
        added = table.appended(start, now)
        if added is None or table.appended(end, now) is None:
            return None
        if added:
            grown[key] = added
            start = now
        started[key] = (table, start)
    return grown, started


class Stamped(NamedTuple):
    """A result computed by a join over stamped tables: the *value*, the
    tables it read with their stamps (:func:`ended`) and the data
    generation it was last confirmed at."""

    value: object
    reads: Tuple[Read, ...]
    generation: int


def refresh(
    entry: Optional[Stamped],
    generation: int,
    lookup: Callable[[Hashable], AppendOnly],
    full: Callable[[dict], object],
    extend: Callable[[object, dict, dict], object],
    always_extend: bool = False,
) -> Tuple[Stamped, str]:
    """*entry* (None: nothing computed yet) brought up to the data at
    *generation*, which the caller read before any table, and the
    outcome: ``"hit"``, ``"extended"`` or ``"miss"``.

    When no table *entry* read gained a row (:func:`grown_tables`, over
    *lookup*), its value is re-confirmed and re-stamped.  When each is
    still the table read and only grew, ``extend(value, grown,
    started)`` extends the value by what read an appended row (*grown*:
    key -> rows appended; *started*: key -> table and start stamp).
    Otherwise ``full(started)`` computes it anew, adding each table it
    reads to *started* before reading any row.  Without
    *always_extend*, an input that gained more rows than were read of
    it is computed in full too: after a bulk load that costs less.  The
    entry is stamped after the work; installing it is the caller's.
    """
    grown = None if entry is None else grown_tables(lookup, entry.reads)
    if grown is not None and not always_extend and any(
        len(grown[0].get(key, ())) > end.count for key, _, _, end in entry.reads
    ):
        grown = None
    if grown is None:
        started: Dict[Hashable, Tuple[AppendOnly, Stamp]] = {}
        value, outcome = full(started), "miss"
    else:
        appended, started = grown
        if appended:
            value, outcome = extend(entry.value, appended, started), "extended"
        else:
            value, outcome = entry.value, "hit"
    return Stamped(value, ended(started), generation), outcome
