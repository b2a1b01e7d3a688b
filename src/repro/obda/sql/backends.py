"""Real SQL pushdown: execute unfolded UCQs inside ``sqlite3``.

The paper's practicality claim is that rewritten queries are "directly
translatable into SQL" and can be *delegated* to a relational engine.
:class:`SqliteBackend` materializes the mapping-defined source tables
into a (memory- or file-backed) SQLite database and ships each unfolded
UCQ as SQL, so join ordering, index selection and deduplication happen
inside a real query engine.  The SQL is rendered from the table CQs
the in-memory SQL join runs
(:meth:`~repro.obda.rewriting.unfolding.UnfoldedQuery.converted`): one
flat SELECT per CQ, its atoms as ``"d_<table>" AS a<i>``, its classes
as ``=``, its constants as ``?`` parameters and its inequalities as
``<>``, united by ``UNION`` at most 500 to a statement (SQLite's
compound-select limit).  So both SQL executors read an unfolded part
through one conversion: column resolution, ``=`` classes, UNION
branches and boolean parts are decided in one place.

Cells compare by their string forms, the identity of
:func:`repro.obda.sql.table.join_key` that every executor shares, so
the replica stores every logical column ``i`` as two physical columns

``c{i}_t``
    the string form ``str(value)`` — never NULL (``None`` stores
    ``'None'``); every selection and join compares it with ``=`` (or
    ``<>``), and it carries the column's one index;
``c{i}_v``
    the raw value (INTEGER/REAL/TEXT/NULL; booleans as 0/1), read only
    to decode raw value answers.

Loading is incremental: tables are bulk-loaded via ``executemany``
batches, and after inserts only the rows appended since are shipped, by
the table stamps every reader of an append-only table shares
(:meth:`~repro.obda.sql.table.Table.appended`).  Each replica row is
keyed by its 1-based position in the source table (its ``rowid``, an
``INTEGER PRIMARY KEY`` set on insert), so ``rowid > n`` selects
exactly the rows appended after the first *n*, however the replica was
loaded.  A table loads in one transaction: a load that fails part-way
rolls back, and the replica keeps the rows it had.

Answers grow with appends as the in-memory join's do.  Given the row
counts that earlier answers read, :meth:`SqliteBackend.execute_unfolded`
ships the appended rows and runs a *delta statement*: per table CQ, one
SELECT per atom over a grown table, that atom bounded by
``a<i>.rowid > ?``, so only the answers that read an appended row come
back.  Compiled statements, full and delta, are cached per unfolded
query, the columns of the tables it scans and the set of grown tables
(SQLite additionally caches the prepared statement by SQL text), and
``runtime.budget`` deadlines are enforced
*inside* SQLite through a progress handler that aborts the statement
when the budget expires.

Known fidelity limits (documented, exercised by tests where possible):
raw value-column answers come back as SQLite scalars, so ``bool`` cells
are reconstructed from their ``_t`` form, ``float('nan')`` cells are
re-created (a fresh NaN object — identity-based tuple equality with the
original cell is lost), and integers outside 64 bits fall back to their
string form.  IRI-template answers are unaffected: they are assembled
from the ``_t`` columns, which are exact.
"""

from __future__ import annotations

import sqlite3
import threading
import time
import weakref
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ...errors import MappingError
from ...obs.metrics import global_metrics
from ...obs.trace import current_tracer
from ...runtime.budget import Budget
from .database import Database
from .table import Stamp, Table

__all__ = ["SqliteBackend"]

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: SQLite's default SQLITE_MAX_COMPOUND_SELECT: the most SELECTs one
#: compound statement may unite.
_MAX_COMPOUND_SELECT = 500


def _quote(identifier: str) -> str:
    """Quote an arbitrary identifier for SQLite."""
    return '"' + identifier.replace('"', '""') + '"'


def _encode_cell(value) -> Tuple[object, str]:
    """The ``(_v, _t)`` physical pair for one logical cell.

    ``_t`` is the string form, the cell's identity.  ``_v`` keeps the
    raw value when SQLite can store it faithfully; otherwise it degrades
    to the string form.
    """
    text = str(value)
    if value is None or isinstance(value, str) or isinstance(value, float):
        raw: object = value  # NaN becomes NULL; decoded back via _t
    elif isinstance(value, bool):
        raw = int(value)
    elif isinstance(value, int):
        raw = value if _INT64_MIN <= value <= _INT64_MAX else text
    else:  # exotic cell object: keep the string form everywhere
        raw = text
    return raw, text


def _decode_raw(raw, text):
    """Invert :func:`_encode_cell` for a raw value-column answer."""
    if raw is None:
        if text == "nan":
            return float("nan")
        return None
    if isinstance(raw, int):
        if text == "True":
            return True
        if text == "False":
            return False
    return raw


class _Since(NamedTuple):
    """The parameter of a delta SELECT's ``a<i>.rowid > ?``: the rows of
    *table* the earlier answers read, bound per execution."""

    table: str


def _render(cq, readers, bounded: Optional[int] = None) -> Tuple[List[str], str, list]:
    """Table CQ *cq* as the parts of one flat SELECT: its output columns,
    its ``FROM … [WHERE …]`` body over ``"d_<table>" AS a<i>``, and the
    body's parameters in the order their ``?`` appear.

    A constant position is bound as a parameter, each later column of a
    class slot equals the slot's first column (in atom, then position
    order), and each ``unequal`` pair is a ``<>``.  Atom *bounded*, when
    given, reads only the rows past a bound: ``a<bounded>.rowid > ?``,
    its parameter a :class:`_Since`.  The output columns follow
    *readers*: a template reads the ``_t`` column of each of its
    positions, a raw value reader the ``(_v, _t)`` pair of its one.
    """
    where: List[str] = []
    params: list = []
    if bounded is not None:
        where.append(f"a{bounded}.rowid > ?")
        params.append(_Since(cq.tables[bounded]))
    first: Dict[int, str] = {}  # class slot -> its first column
    captured: Dict[int, str] = {}  # output slot -> its column, unsuffixed
    for atom, (shape, captures) in enumerate(zip(cq.shapes, cq.captures)):
        for position, part in enumerate(shape):
            if part is None:
                continue
            column = f"a{atom}.c{position}_t"
            if part.__class__ is str:
                where.append(f"{column} = ?")
                params.append(part)
            elif part in first:
                where.append(f"{column} = {first[part]}")
            else:
                first[part] = column
        for position, slot in captures:
            captured[slot] = f"a{atom}.c{position}"
    for pair in cq.unequal:
        sides = []
        for side in pair:
            if side.__class__ is str:
                params.append(side)
                sides.append("?")
            else:
                sides.append(first[side])
        where.append(" <> ".join(sides))
    body = "FROM " + ", ".join(
        [f"{_quote('d_' + table)} AS a{atom}" for atom, table in enumerate(cq.tables)]
    )
    if where:
        body += " WHERE " + " AND ".join(where)
    outputs: List[str] = []
    for template, positions in readers:
        columns = [captured[cq.answer[position]] for position in positions]
        if template is None:
            outputs += [f"{columns[0]}_v", f"{columns[0]}_t"]
        else:
            outputs += [f"{column}_t" for column in columns]
    return outputs, body, params


def _bind(params: tuple, since: Dict[str, int]) -> tuple:
    """A delta statement's *params*, each :class:`_Since` bound to the
    row count *since* gives its table."""
    return tuple(
        [since[param.table] if param.__class__ is _Since else param for param in params]
    )


class _CompiledQuery:
    """One unfolded UCQ compiled to ``(sql, params)`` statements of at
    most :data:`_MAX_COMPOUND_SELECT` SELECTs each, the per-part Python
    answer assemblers, and the names of the tables the statements read.
    A delta statement's params hold a :class:`_Since` per bound."""

    __slots__ = ("statements", "sql", "assemblers", "reads")

    def __init__(self, statements, assemblers, reads):
        self.statements = statements
        self.sql = ";\n".join(sql for sql, _ in statements)
        self.assemblers = assemblers
        self.reads = reads


def _make_assembler(readers):
    """Build the row → answer tuple function for one part.

    Each SELECT of the part laid out its outputs by :func:`_render`:
    template readers contribute one ``_t`` column per position (exact
    string forms, so ``str(value)`` substitution is the identity), raw
    value readers a ``(_v, _t)`` pair for faithful decoding.
    """
    specs = []
    offset = 0
    for template, positions in readers:
        width = 2 if template is None else len(positions)
        specs.append((template, offset, offset + width))
        offset += width

    def assemble(row) -> Tuple:
        return tuple(
            [
                _decode_raw(row[start], row[start + 1])
                if template is None
                else template.render(row[start:end])
                for template, start, end in specs
            ]
        )

    return assemble


def _columns(tables: Dict[str, Table]) -> Tuple[Tuple[str, ...], ...]:
    """The columns of *tables*, in order: with the set of grown tables,
    the statement cache's key."""
    return tuple([table.columns for table in tables.values()])


class _LoadState(NamedTuple):
    """A table as the replica holds it: the table's identity and
    columns, and its stamp as of the rows shipped (the replica holds
    rows ``1`` to ``stamp.count`` of it, each at its position)."""

    table_id: int
    columns: Tuple[str, ...]
    stamp: Stamp


class SqliteBackend:
    """Materialize the source tables in SQLite and push unfolded UCQs
    down as SQL statements of at most 500 SELECTs each.

    One backend is bound to one :class:`Database` (the raw one — retry
    wrappers are passed per call) and is safe to share across threads:
    the connection is serialized by a lock, answer assembly runs outside
    it.

    ``path=None`` keeps the materialized copy in ``:memory:``; a file
    path persists it across backends, but each new backend *reloads*
    the data it needs (the file is a scratch replica, not a source of
    truth — see README "SQL pushdown backend").
    """

    name = "sqlite"

    def __init__(
        self,
        database: Database,
        path: Optional[str] = None,
        batch_size: int = 5000,
        progress_stride: int = 20000,
    ):
        self.database = database
        self.path = path
        self.batch_size = batch_size
        self.progress_stride = progress_stride
        self._lock = threading.RLock()
        # isolation_level=None: no implicit transactions; each table
        # load is one explicit BEGIN ... COMMIT (see _ensure_loaded)
        self._connection = sqlite3.connect(
            path if path is not None else ":memory:",
            check_same_thread=False,
            isolation_level=None,
        )
        cursor = self._connection
        cursor.execute("PRAGMA synchronous = OFF")
        cursor.execute("PRAGMA journal_mode = MEMORY")
        cursor.execute("PRAGMA temp_store = MEMORY")
        cursor.execute("PRAGMA cache_size = -65536")
        self._loaded: Dict[str, _LoadState] = {}
        #: unfolding -> (the names of the tables it scans, {their
        #: columns: the statements rendered for them})
        self._compiled = weakref.WeakKeyDictionary()
        self._stats = {
            "statement_hits": 0,
            "statement_misses": 0,
            "full_loads": 0,
            "delta_loads": 0,
            "rows_shipped": 0,
            "executions": 0,
        }
        self._closed = False

    # -- loading -----------------------------------------------------------------

    def _create_table(self, name: str, column_count: int) -> None:
        physical = _quote(f"d_{name}")
        self._connection.execute(f"DROP TABLE IF EXISTS {physical}")
        columns = ", ".join(f"c{i}_v, c{i}_t" for i in range(column_count))
        # the declared INTEGER PRIMARY KEY is the rowid itself, which
        # no VACUUM renumbers
        self._connection.execute(
            f"CREATE TABLE {physical} (rowid INTEGER PRIMARY KEY, {columns})"
        )

    def _create_indexes(self, name: str, column_count: int) -> None:
        physical = _quote(f"d_{name}")
        for i in range(column_count):
            index = _quote(f"i_{name}_{i}_t")
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index} ON {physical} (c{i}_t)"
            )

    def _ship_rows(
        self, name: str, column_count: int, rows, start: int, budget: Optional[Budget]
    ) -> int:
        """Insert *rows*, the source rows after the first *start*, each
        at its position."""
        physical = _quote(f"d_{name}")
        placeholders = ", ".join("?" for _ in range(2 * column_count + 1))
        statement = f"INSERT INTO {physical} VALUES ({placeholders})"
        shipped = 0
        batch: List[Tuple] = []
        for position, row in enumerate(rows, start + 1):
            if budget is not None:
                budget.tick(stride=1024)
            encoded: List[object] = [position]
            for value in row:
                encoded.extend(_encode_cell(value))
            batch.append(tuple(encoded))
            if len(batch) >= self.batch_size:
                self._connection.executemany(statement, batch)
                shipped += len(batch)
                batch = []
        if batch:
            self._connection.executemany(statement, batch)
            shipped += len(batch)
        return shipped

    def _ensure_loaded(
        self, tables: Dict[str, Table], budget: Optional[Budget]
    ) -> Tuple[Dict[str, int], Dict[str, Stamp]]:
        """Materialize (or delta-refresh) every table of *tables*.

        Returns per table the rows shipped, for the ``backend-load``
        span, and per table the stamp of the rows the replica now holds.
        Each loaded table keeps that stamp
        (:meth:`~repro.obda.sql.table.Table.stamp`); the rows the table
        appended since are shipped as a delta, and a table that lost or
        replaced rows out of band is reloaded in full.  Each table loads
        in one transaction, so a load that fails part-way (a budget
        abort between batches) leaves the replica and its stamp as they
        were.
        """
        shipped_report: Dict[str, int] = {}
        held: Dict[str, Stamp] = {}
        metrics = global_metrics()
        connection = self._connection
        for name, table in tables.items():
            now = table.stamp()
            state = self._loaded.get(name)
            columns = tuple(table.columns)
            fresh = state is None or state.table_id != id(table) or state.columns != columns
            added = None if fresh else table.appended(state.stamp, now)
            if added is not None and not added:
                shipped_report[name] = 0
                held[name] = state.stamp
                continue
            connection.execute("BEGIN")
            try:
                if fresh:
                    self._create_table(name, len(columns))
                    shipped = self._ship_rows(
                        name, len(columns), table.rows[: now.count], 0, budget
                    )
                    self._create_indexes(name, len(columns))
                    self._stats["full_loads"] += 1
                    metrics.counter("backend.sqlite.full_loads").inc()
                elif added is None:
                    # Out-of-band edit (monkeypatched rows): resync fully.
                    connection.execute(f"DELETE FROM {_quote(f'd_{name}')}")
                    shipped = self._ship_rows(
                        name, len(columns), table.rows[: now.count], 0, budget
                    )
                    self._stats["full_loads"] += 1
                    metrics.counter("backend.sqlite.full_loads").inc()
                else:
                    shipped = self._ship_rows(
                        name, len(columns), added, state.stamp.count, budget
                    )
                    self._stats["delta_loads"] += 1
                    metrics.counter("backend.sqlite.delta_loads").inc()
                connection.execute("COMMIT")
            except BaseException:
                if connection.in_transaction:
                    connection.execute("ROLLBACK")
                raise
            self._loaded[name] = _LoadState(
                id(table), columns, now
            )
            self._stats["rows_shipped"] += shipped
            metrics.counter("backend.sqlite.rows_shipped").inc(shipped)
            shipped_report[name] = shipped
            held[name] = now
        return shipped_report, held

    def invalidate(self) -> None:
        """Force a full reload on next use: for rows edited in place,
        which no table stamp sees (appends, and tables that shrank or
        were replaced, are caught by the stamps)."""
        with self._lock:
            self._loaded = {}

    # -- compilation -------------------------------------------------------------

    def _compile(
        self,
        unfolded,
        database: Database,
        budget: Optional[Budget] = None,
        grown: Optional[FrozenSet[str]] = None,
    ) -> Tuple[_CompiledQuery, Dict[str, Table]]:
        """*unfolded* as SQL, and the tables it scans by name, looked up
        through *database*.

        Each table CQ of a part
        (:meth:`~repro.obda.rewriting.unfolding.UnfoldedQuery.converted`:
        the conversions the SQL join runs) is one SELECT tagged with its
        part and padded with NULLs to the widest; a CQ without outputs
        asks ``WHERE EXISTS``.  A part with no satisfiable CQ renders
        none, and an unfolding of such parts no statement.  With the
        names of the *grown* tables, the delta statement: per CQ, one
        SELECT per atom over a grown table, that atom bounded, and none
        for a CQ over no grown table; its SELECTs are united by
        ``UNION ALL``.
        """
        selects: List[Tuple[int, List[str], str, list]] = []
        assemblers = []
        tables: Dict[str, Table] = {}
        reads: Dict[str, None] = {}
        for index, (scanned, cqs, readers) in enumerate(
            unfolded.converted(database.table, budget)
        ):
            tables.update(scanned)
            assemblers.append(_make_assembler(readers))
            for cq in cqs:
                if grown is None:
                    bounds: List[Optional[int]] = [None]
                else:
                    bounds = [atom for atom, name in enumerate(cq.tables) if name in grown]
                    if not bounds:
                        continue
                reads.update(dict.fromkeys(cq.tables))
                for bounded in bounds:
                    selects.append((index,) + _render(cq, readers, bounded))
        width = max((len(outputs) for _, outputs, _, _ in selects), default=0)
        statements = []
        for start in range(0, len(selects), _MAX_COMPOUND_SELECT):
            texts: List[str] = []
            params: list = []
            for index, outputs, body, part_params in selects[
                start : start + _MAX_COMPOUND_SELECT
            ]:
                pads = ["NULL"] * (width - len(outputs))
                columns = ", ".join(outputs + pads + [f"{index}"])
                if outputs:
                    texts.append(f"SELECT {columns} {body}")
                else:
                    # Boolean part: one row iff the join is non-empty.
                    texts.append(f"SELECT {columns} WHERE EXISTS (SELECT 1 {body})")
                params.extend(part_params)
            if grown is not None:
                # A delta returns few rows, which the answer set dedups:
                # under DISTINCT, SQLite may scan an index in output
                # order instead of searching the bounded rowid range.
                statement = "\nUNION ALL\n".join(texts)
            elif len(texts) == 1:
                statement = "SELECT DISTINCT * FROM (" + texts[0] + ")"
            else:
                statement = "\nUNION\n".join(texts)
            statements.append((statement, tuple(params)))
        return _CompiledQuery(statements, assemblers, tuple(reads)), tables

    def sql_for(self, unfolded, database: Optional[Database] = None) -> str:
        """The exact statements :meth:`execute_unfolded` would ship,
        separated by ``;``."""
        with self._lock:
            return self._compile(unfolded, database or self.database)[0].sql

    # -- execution ---------------------------------------------------------------

    def execute_unfolded(
        self,
        unfolded,
        budget: Optional[Budget] = None,
        database: Optional[Database] = None,
        since: Optional[Dict[str, int]] = None,
        read: Optional[Dict[str, Tuple[Table, Stamp]]] = None,
    ) -> Set[Tuple]:
        """Certain-answer tuples of *unfolded*, pushed down as one
        statement per 500 SELECTs.

        *database* may be a retry-wrapped view of the bound database;
        table resolution (the source access path) goes through it.

        With *since* (table name -> how many of its rows earlier answers
        read), only the answers that read a later row, by the delta
        statement (:meth:`_compile`), each bound the count *since* gives.
        Together with the earlier answers, these are the answers over
        the grown tables.  *read*, when given, gains each table the
        statements read, with the stamp of the rows the replica holds of
        it (:meth:`~repro.obda.sql.table.Table.stamp`).

        Runs in a ``backend-exec`` span carrying the part count, the
        statement-cache outcome, the rows fetched, with *since* the
        ``delta_rows`` past each bound and, under an enabled tracer, the
        SQL text; its ``backend-load`` child covers the replica refresh
        and carries the rows shipped per table.
        """
        metrics = global_metrics()
        tracer = current_tracer()
        with tracer.span("backend-exec") as span:
            span.annotate(backend=self.name, parts=len(unfolded.parts))
            if budget is not None:
                budget.check()
            if not unfolded.parts:
                span.annotate(statement_cache="empty", rows_fetched=0, answers=0)
                return set()
            view = database if database is not None else self.database
            grown = None if since is None else frozenset(since)
            with self._lock:
                if self._closed:
                    raise MappingError("sqlite backend is closed")
                cached = self._compiled.get(unfolded)
                compiled = None
                if cached is not None:
                    # Revalidate the snapshot through the caller's (possibly
                    # retry-wrapped) access path before reusing a statement.
                    tables = {name: view.table(name) for name in cached[0]}
                    compiled = cached[1].get((_columns(tables), grown))
                if compiled is None:
                    compiled, tables = self._compile(unfolded, view, budget, grown)
                    if cached is None:
                        cached = self._compiled[unfolded] = (tuple(tables), {})
                    cached[1][_columns(tables), grown] = compiled
                    self._stats["statement_misses"] += 1
                    metrics.counter("backend.sqlite.statement_misses").inc()
                    span.set("statement_cache", "miss")
                else:
                    self._stats["statement_hits"] += 1
                    metrics.counter("backend.sqlite.statement_hits").inc()
                    span.set("statement_cache", "hit")
                if tracer.enabled:
                    span.set("sql", compiled.sql)
                load_started = time.perf_counter()
                with tracer.span("backend-load") as load_span:
                    shipped, held = self._ensure_loaded(
                        {name: tables[name] for name in compiled.reads}, budget
                    )
                    load_span.set("rows_shipped", shipped)
                load_s = time.perf_counter() - load_started
                if read is not None:
                    for name, stamp in held.items():
                        read.setdefault(name, (tables[name], stamp))
                if since is not None:
                    span.set(
                        "delta_rows",
                        {
                            name: held[name].count - count
                            for name, count in since.items()
                            if name in held
                        },
                    )
                handler_installed = False
                if budget is not None and budget.deadline is not None:
                    self._connection.set_progress_handler(
                        lambda: 1 if budget.expired() else 0, self.progress_stride
                    )
                    handler_installed = True
                execute_started = time.perf_counter()
                try:
                    rows = []
                    for sql, params in compiled.statements:
                        if since is not None:
                            params = _bind(params, since)
                        rows.extend(
                            self._connection.execute(sql, params).fetchall()
                        )
                except sqlite3.OperationalError as exc:
                    if budget is not None and budget.expired():
                        metrics.counter("backend.sqlite.budget_aborts").inc()
                        budget.check()  # raises the canonical TimeoutExceeded
                    raise MappingError(f"sqlite backend error: {exc}") from exc
                finally:
                    if handler_installed:
                        self._connection.set_progress_handler(None, 0)
                execute_s = time.perf_counter() - execute_started
            answers: Set[Tuple] = set()
            assemblers = compiled.assemblers
            for row in rows:
                if budget is not None:
                    budget.tick(stride=2048)
                answers.add(assemblers[row[-1]](row))
            with self._lock:
                self._stats["executions"] += 1
            metrics.counter("backend.sqlite.executions").inc()
            metrics.histogram("backend.sqlite.execute_s").observe(execute_s)
            metrics.histogram("backend.sqlite.load_s").observe(load_s)
            span.annotate(rows_fetched=len(rows), answers=len(answers))
            return answers

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._connection.close()
                self._closed = True
                self._loaded = {}

    def __repr__(self) -> str:
        kind = self.path or ":memory:"
        return f"SqliteBackend({self.database.name!r}, {kind})"
