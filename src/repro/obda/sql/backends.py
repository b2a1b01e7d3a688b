"""Real SQL pushdown: execute unfolded UCQs inside ``sqlite3``.

The paper's practicality claim is that rewritten queries are "directly
translatable into SQL" and can be *delegated* to a relational engine.
PR 6/7 made the repo plan those queries well, but still interpreted
them row-by-row in the in-memory algebra.  :class:`SqliteBackend`
closes that gap: it materializes the mapping-defined source tables into
a (memory- or file-backed) SQLite database and ships each unfolded UCQ
as one SQL statement per 500 disjuncts (SQLite's compound-select limit)
— disjuncts as ``UNION``, joins/selections/projections inline — so join
ordering, index selection and deduplication happen inside a real query
engine.

Cells compare by their string forms, the identity of
:func:`repro.obda.sql.stats.join_key` that every executor shares, so
the replica stores every logical column ``i`` as two physical columns

``c{i}_t``
    the string form ``str(value)`` — never NULL (``None`` stores
    ``'None'``); every selection and join compares it with ``=`` (or
    ``<>``), and it carries the column's one index;
``c{i}_v``
    the raw value (INTEGER/REAL/TEXT/NULL; booleans as 0/1), read only
    to decode raw value answers.

Loading is incremental and generation-validated like every other cache
in the repo: tables are bulk-loaded via ``executemany`` batches, and on
insert only the new rows are re-shipped (the engine's tables are
append-only and bump their generation per insert, so ``rows[shipped:]``
is exactly the delta).  Compiled statements are cached per unfolded
query (SQLite additionally caches the prepared statement by SQL text),
and ``runtime.budget`` deadlines are enforced *inside* SQLite through a
progress handler that aborts the statement when the budget expires.

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
from typing import Dict, List, Optional, Set, Tuple

from ...errors import MappingError
from ...obs.metrics import global_metrics
from ...obs.trace import current_tracer
from ...runtime.budget import Budget
from .algebra import (
    Condition,
    Const,
    Expression,
    Join,
    Projection,
    Rename,
    Scan,
    Selection,
    UnionAll,
)
from .database import Database

__all__ = ["SqliteBackend"]

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: SQLite's default SQLITE_MAX_COMPOUND_SELECT: the most SELECTs one
#: compound statement may unite.
_MAX_COMPOUND_SELECT = 500


def _quote(identifier: str) -> str:
    """Quote an arbitrary identifier for SQLite."""
    return '"' + identifier.replace('"', '""') + '"'


def _strip(column: str) -> str:
    return column.rsplit(".", 1)[-1]


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


class _ColRef:
    """One logical column of a compiled frame: physical alias + position."""

    __slots__ = ("alias", "position")

    def __init__(self, alias: str, position: int):
        self.alias = alias
        self.position = position

    @property
    def v(self) -> str:
        return f"{self.alias}.c{self.position}_v"

    @property
    def t(self) -> str:
        return f"{self.alias}.c{self.position}_t"


class _Frame:
    """A flattened SELECT under construction: FROM items, WHERE
    conjuncts (with positional params) and the logical column list."""

    __slots__ = ("from_items", "where", "params", "columns")

    def __init__(self):
        self.from_items: List[str] = []
        self.where: List[str] = []
        self.params: List[object] = []
        self.columns: List[Tuple[str, _ColRef]] = []

    def resolve(self, column: str) -> _ColRef:
        """Mirror ``algebra._resolve``: exact name (last occurrence wins,
        like ``ResultSet._position``), else a unique suffix match."""
        for name, ref in reversed(self.columns):
            if name == column:
                return ref
        matches = [ref for name, ref in self.columns if _strip(name) == column]
        if len(matches) == 1:
            return matches[0]
        names = [name for name, _ in self.columns]
        if not matches:
            raise MappingError(f"no column {column!r} in {tuple(names)}")
        raise MappingError(f"ambiguous column {column!r} in {tuple(names)}")


class _Compiler:
    """Compile one unfolded part's algebra tree into a flat SELECT."""

    def __init__(self, database: Database):
        self.database = database
        self.tables: Dict[str, object] = {}  # name -> Table, in first-use order
        self._alias_counter = 0

    def fresh_alias(self) -> str:
        alias = f"a{self._alias_counter}"
        self._alias_counter += 1
        return alias

    def flatten(self, expression: Expression) -> _Frame:
        if isinstance(expression, Scan):
            table = self.database.table(expression.table)
            self.tables.setdefault(expression.table, table)
            alias = self.fresh_alias()
            frame = _Frame()
            frame.from_items.append(
                f"{_quote('d_' + expression.table)} AS {alias}"
            )
            label = expression.label
            frame.columns = [
                (f"{label}.{column}", _ColRef(alias, position))
                for position, column in enumerate(table.columns)
            ]
            return frame
        if isinstance(expression, Rename):
            frame = self.flatten(expression.source)
            frame.columns = [
                (f"{expression.prefix}.{_strip(name)}", ref)
                for name, ref in frame.columns
            ]
            return frame
        if isinstance(expression, Selection):
            frame = self.flatten(expression.source)
            for condition in expression.conditions:
                self._compile_condition(condition, frame)
            return frame
        if isinstance(expression, Join):
            left = self.flatten(expression.left)
            right = self.flatten(expression.right)
            frame = _Frame()
            frame.from_items = left.from_items + right.from_items
            frame.where = left.where + right.where
            frame.params = left.params + right.params
            frame.columns = left.columns + right.columns
            for left_name, right_name in expression.on:
                frame.where.append(
                    f"{left.resolve(left_name).t} = {right.resolve(right_name).t}"
                )
            return frame
        if isinstance(expression, Projection):
            frame = self.flatten(expression.source)
            names = expression.names or tuple(
                _strip(column) for column in expression.columns
            )
            # DISTINCT is intentionally dropped: every unfolded part is
            # consumed as a set (final UNION / answer-set dedup), so
            # inner dedup only affects multiplicity, never membership —
            # and a flat SELECT lets SQLite order the whole part's joins.
            frame.columns = [
                (name, frame.resolve(column))
                for column, name in zip(expression.columns, names)
            ]
            return frame
        if isinstance(expression, UnionAll):
            return self._flatten_union(expression)
        raise MappingError(f"not an algebra expression: {expression!r}")

    def _flatten_union(self, expression: UnionAll) -> _Frame:
        branches: List[Tuple[str, List[object], List[Tuple[str, _ColRef]]]] = []
        for part in expression.parts:
            inner = self.flatten(part)
            select_list = ", ".join(
                f"{ref.v} AS c{i}_v, {ref.t} AS c{i}_t"
                for i, (_, ref) in enumerate(inner.columns)
            )
            sql = f"SELECT {select_list} FROM {', '.join(inner.from_items)}"
            if inner.where:
                sql += " WHERE " + " AND ".join(inner.where)
            branches.append((sql, inner.params, inner.columns))
        width = len(branches[0][2])
        for _, _, columns in branches[1:]:
            if len(columns) != width:
                raise MappingError("UNION branches have different arities")
        alias = self.fresh_alias()
        frame = _Frame()
        frame.from_items.append(
            "(" + " UNION ALL ".join(sql for sql, _, _ in branches) + f") AS {alias}"
        )
        for _, params, _ in branches:
            frame.params.extend(params)
        frame.columns = [
            (name, _ColRef(alias, position))
            for position, (name, _) in enumerate(branches[0][2])
        ]
        return frame

    def _compile_condition(self, condition: Condition, frame: _Frame) -> None:
        if condition.operator not in ("=", "!="):
            raise MappingError(f"unsupported operator {condition.operator!r}")
        operator = "=" if condition.operator == "=" else "<>"
        left_const = isinstance(condition.left, Const)
        right_const = isinstance(condition.right, Const)
        if left_const and right_const:
            equal = str(condition.left.value) == str(condition.right.value)
            frame.where.append("1" if equal == (operator == "=") else "0")
        elif left_const or right_const:
            constant = (condition.left if left_const else condition.right).value
            column = condition.right if left_const else condition.left
            frame.where.append(f"{frame.resolve(column).t} {operator} ?")
            frame.params.append(str(constant))
        else:
            left = frame.resolve(condition.left).t
            right = frame.resolve(condition.right).t
            frame.where.append(f"{left} {operator} {right}")


class _CompiledQuery:
    """One unfolded UCQ compiled to ``(sql, params)`` statements of at
    most :data:`_MAX_COMPOUND_SELECT` parts each, plus the per-part
    Python answer assemblers."""

    __slots__ = ("statements", "sql", "assemblers", "tables", "width")

    def __init__(self, statements, assemblers, tables, width):
        self.statements = statements
        self.sql = ";\n".join(sql for sql, _ in statements)
        self.assemblers = assemblers
        self.tables = tables
        self.width = width


def _make_assembler(recipes):
    """Build the row → answer tuple function for one part.

    The SELECT list for the part was laid out by :func:`_compile_part`:
    template recipes contribute one ``_t`` column per placeholder (exact
    string forms, so ``str(value)`` substitution is the identity), raw
    value recipes contribute a ``(_v, _t)`` pair for faithful decoding.
    """
    specs = []
    offset = 0
    for recipe in recipes:
        width = 2 if recipe.template is None else len(recipe.columns)
        specs.append((recipe.template, offset, offset + width))
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


def _part_width(recipes) -> int:
    return sum(
        2 if recipe.template is None else len(recipe.columns)
        for recipe in recipes
    )


class _LoadState:
    __slots__ = ("table_id", "columns", "generation", "shipped", "last")

    def __init__(self, table_id, columns, generation, rows):
        self.table_id = table_id
        self.columns = columns
        self.generation = generation
        self.shipped = len(rows)
        #: the last row shipped: an out-of-band truncation that regrew the
        #: table past ``shipped`` replaced it
        self.last = rows[-1] if rows else None


class SqliteBackend:
    """Materialize the source tables in SQLite and push unfolded UCQs
    down as SQL statements of at most 500 parts each.

    One backend is bound to one :class:`Database` (the raw one — retry
    wrappers are passed per call, mirroring ``StatisticsCatalog``) and
    is safe to share across threads: the connection is serialized by a
    lock, answer assembly runs outside it.

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
        self._connection = sqlite3.connect(
            path if path is not None else ":memory:", check_same_thread=False
        )
        cursor = self._connection
        cursor.execute("PRAGMA synchronous = OFF")
        cursor.execute("PRAGMA journal_mode = MEMORY")
        cursor.execute("PRAGMA temp_store = MEMORY")
        cursor.execute("PRAGMA cache_size = -65536")
        self._loaded: Dict[str, _LoadState] = {}
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
        self._connection.execute(f"CREATE TABLE {physical} ({columns})")

    def _create_indexes(self, name: str, column_count: int) -> None:
        physical = _quote(f"d_{name}")
        for i in range(column_count):
            index = _quote(f"i_{name}_{i}_t")
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index} ON {physical} (c{i}_t)"
            )

    def _ship_rows(
        self, name: str, column_count: int, rows, budget: Optional[Budget]
    ) -> int:
        physical = _quote(f"d_{name}")
        placeholders = ", ".join("?" for _ in range(2 * column_count))
        statement = f"INSERT INTO {physical} VALUES ({placeholders})"
        shipped = 0
        batch: List[Tuple] = []
        for row in rows:
            if budget is not None:
                budget.tick(stride=1024)
            encoded: List[object] = []
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
        self, tables: Dict[str, object], budget: Optional[Budget]
    ) -> Dict[str, int]:
        """Materialize (or delta-refresh) every referenced table.

        Returns rows shipped per table for the ``backend-load`` span.  The
        generation is captured *before* the row snapshot: rows appended
        mid-copy are shipped now and re-offered as a (empty-prefix)
        delta when the moved generation is observed on the next call —
        the count bookkeeping keeps the replica exactly duplicate-free.
        """
        shipped_report: Dict[str, int] = {}
        metrics = global_metrics()
        for name, table in tables.items():
            generation = table.generation
            state = self._loaded.get(name)
            columns = tuple(table.columns)
            if (
                state is not None
                and state.table_id == id(table)
                and state.columns == columns
                and state.generation == generation
            ):
                shipped_report[name] = 0
                continue
            rows = list(table.rows)
            if (
                state is None
                or state.table_id != id(table)
                or state.columns != columns
            ):
                self._create_table(name, len(columns))
                shipped = self._ship_rows(name, len(columns), rows, budget)
                self._create_indexes(name, len(columns))
                self._stats["full_loads"] += 1
                metrics.counter("backend.sqlite.full_loads").inc()
            elif len(rows) < state.shipped or (
                state.shipped and rows[state.shipped - 1] is not state.last
            ):
                # Out-of-band shrink (monkeypatched rows): resync fully.
                physical = _quote(f"d_{name}")
                self._connection.execute(f"DELETE FROM {physical}")
                shipped = self._ship_rows(name, len(columns), rows, budget)
                self._stats["full_loads"] += 1
                metrics.counter("backend.sqlite.full_loads").inc()
            else:
                shipped = self._ship_rows(
                    name, len(columns), rows[state.shipped :], budget
                )
                self._stats["delta_loads"] += 1
                metrics.counter("backend.sqlite.delta_loads").inc()
            self._connection.commit()
            self._loaded[name] = _LoadState(
                id(table), columns, generation, rows
            )
            self._stats["rows_shipped"] += shipped
            metrics.counter("backend.sqlite.rows_shipped").inc(shipped)
            shipped_report[name] = shipped
        return shipped_report

    def invalidate(self) -> None:
        """Force a full reload on next use (out-of-band mutation only —
        ordinary inserts are caught by the generation counters)."""
        with self._lock:
            self._loaded = {}

    # -- compilation -------------------------------------------------------------

    def _compile(self, unfolded, database: Database) -> _CompiledQuery:
        compiler = _Compiler(database)
        width = max(
            (_part_width(recipes) for _, recipes in unfolded.parts), default=0
        )
        selects: List[str] = []
        params: List[List[object]] = []
        assemblers = []
        for index, (expression, recipes) in enumerate(unfolded.parts):
            frame = compiler.flatten(expression)
            pads = ["NULL"] * (width - _part_width(recipes))
            if recipes:
                exprs: List[str] = []
                for recipe in recipes:
                    refs = [frame.resolve(column) for column in recipe.columns]
                    if recipe.template is None:
                        exprs.extend([refs[0].v, refs[0].t])
                    else:
                        exprs.extend(ref.t for ref in refs)
                select_list = ", ".join(exprs + pads + [f"{index}"])
                sql = f"SELECT {select_list} FROM {', '.join(frame.from_items)}"
                if frame.where:
                    sql += " WHERE " + " AND ".join(frame.where)
            else:
                # Boolean part: one row iff the join is non-empty.
                inner = f"SELECT 1 FROM {', '.join(frame.from_items)}"
                if frame.where:
                    inner += " WHERE " + " AND ".join(frame.where)
                select_list = ", ".join(pads + [f"{index}"])
                sql = f"SELECT {select_list} WHERE EXISTS ({inner})"
            selects.append(sql)
            params.append(frame.params)
            assemblers.append(_make_assembler(recipes))
        statements = []
        for start in range(0, len(selects), _MAX_COMPOUND_SELECT):
            chunk = selects[start : start + _MAX_COMPOUND_SELECT]
            if len(chunk) == 1:
                statement = "SELECT DISTINCT * FROM (" + chunk[0] + ")"
            else:
                statement = "\nUNION\n".join(chunk)
            chunk_params = params[start : start + _MAX_COMPOUND_SELECT]
            statements.append(
                (statement, tuple(p for part in chunk_params for p in part))
            )
        return _CompiledQuery(statements, assemblers, compiler.tables, width)

    def sql_for(self, unfolded, database: Optional[Database] = None) -> str:
        """The exact statements :meth:`execute_unfolded` would ship,
        separated by ``;``."""
        with self._lock:
            return self._compile(unfolded, database or self.database).sql

    # -- execution ---------------------------------------------------------------

    def execute_unfolded(
        self,
        unfolded,
        budget: Optional[Budget] = None,
        database: Optional[Database] = None,
    ) -> Set[Tuple]:
        """Certain-answer tuples of *unfolded*, pushed down as one
        statement per 500 parts.

        *database* may be a retry-wrapped view of the bound database;
        table resolution (the source access path) goes through it.

        Runs in a ``backend-exec`` span carrying the part count, the
        statement-cache outcome, the rows fetched and, under an enabled
        tracer, the SQL text; its ``backend-load`` child covers the
        replica refresh and carries the rows shipped per table.
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
            with self._lock:
                if self._closed:
                    raise MappingError("sqlite backend is closed")
                compiled = self._compiled.get(unfolded)
                if compiled is None:
                    compiled = self._compile(unfolded, view)
                    self._compiled[unfolded] = compiled
                    self._stats["statement_misses"] += 1
                    metrics.counter("backend.sqlite.statement_misses").inc()
                    span.set("statement_cache", "miss")
                else:
                    # Revalidate the snapshot through the caller's (possibly
                    # retry-wrapped) access path before reusing the statement.
                    for name in compiled.tables:
                        compiled.tables[name] = view.table(name)
                    self._stats["statement_hits"] += 1
                    metrics.counter("backend.sqlite.statement_hits").inc()
                    span.set("statement_cache", "hit")
                if tracer.enabled:
                    span.set("sql", compiled.sql)
                load_started = time.perf_counter()
                with tracer.span("backend-load") as load_span:
                    shipped = self._ensure_loaded(compiled.tables, budget)
                    load_span.set("rows_shipped", shipped)
                load_s = time.perf_counter() - load_started
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
