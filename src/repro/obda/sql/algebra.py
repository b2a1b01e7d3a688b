"""Relational algebra: expression tree plus a straightforward evaluator.

Mapping source queries and unfolded ontology queries both compile to this
algebra; the evaluator produces a :class:`ResultSet` (named columns +
tuples).  Supported operators: scan, selection (conjunctions of
column=column / column=constant / column!=...), projection with optional
renaming, natural-free equi-join, and union.

Cells compare by their string forms (:func:`~repro.obda.sql.stats.join_key`):
selections, joins and duplicate elimination all treat ``1`` and ``"1"``
as one value and ``1`` and ``1.0`` as two, exactly as an IRI template
renders them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

from ...errors import MappingError
from ...runtime.budget import Budget
from .database import Database
from .stats import JoinIndex, join_key

__all__ = [
    "ResultSet",
    "Expression",
    "Scan",
    "Selection",
    "Projection",
    "Join",
    "UnionAll",
    "Condition",
    "evaluate",
    "scans",
]


class ResultSet:
    """Evaluation output: column names plus a list of rows (duplicate-free
    only after an explicit projection with ``distinct=True``)."""

    def __init__(self, columns: Sequence[str], rows: List[Tuple]):
        self.columns = tuple(columns)
        self.rows = rows
        self._position = {column: i for i, column in enumerate(self.columns)}

    def column_index(self, column: str) -> int:
        try:
            return self._position[column]
        except KeyError:
            raise MappingError(
                f"no column {column!r} in result (columns: {self.columns})"
            ) from None

    def distinct(self) -> "ResultSet":
        """Drop repeated rows: same string forms *and* ``==`` cells.

        The string forms keep ``1`` and ``1.0`` apart (they render two
        IRIs); ``==`` keeps ``1`` and ``"1"`` apart, so a raw value
        answer comes back as every cell the other executors return.
        """
        seen = set()
        rows = []
        for row in self.rows:
            key = (join_key(row), row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return ResultSet(self.columns, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"ResultSet({list(self.columns)}, {len(self.rows)} rows)"


@dataclass(frozen=True)
class Condition:
    """``left OP right`` where each side is a column name or a constant.

    Columns are written as plain strings; constants are wrapped in
    :class:`Const` to distinguish ``price = "cost"`` (column) from
    ``price = Const("cost")`` (string literal).
    """

    left: object
    right: object
    operator: str = "="  # "=" or "!="


@dataclass(frozen=True)
class Const:
    value: object


class Expression:
    """Base class of algebra nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Scan(Expression):
    """Read a base table, optionally renaming it (self-join support)."""

    table: str
    alias: Optional[str] = None

    @property
    def label(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class Selection(Expression):
    source: Expression
    conditions: Tuple[Condition, ...]


@dataclass(frozen=True)
class Projection(Expression):
    source: Expression
    columns: Tuple[str, ...]
    #: optional output names, aligned with ``columns``
    names: Optional[Tuple[str, ...]] = None
    distinct: bool = True


@dataclass(frozen=True)
class Join(Expression):
    """Equi-join: rows of ``left`` × ``right`` where all ``on`` pairs match."""

    left: Expression
    right: Expression
    on: Tuple[Tuple[str, str], ...]  # (left column, right column)


@dataclass(frozen=True)
class UnionAll(Expression):
    parts: Tuple[Expression, ...]


@dataclass(frozen=True)
class Rename(Expression):
    """Prefix every output column with ``prefix.`` (subquery aliasing)."""

    source: Expression
    prefix: str


def scans(expression: Expression) -> List[Scan]:
    """The base-table reads of *expression*, one per :class:`Scan` (a
    self-join lists its table twice)."""
    if isinstance(expression, Scan):
        return [expression]
    if isinstance(expression, (Selection, Projection, Rename)):
        return scans(expression.source)
    if isinstance(expression, Join):
        return scans(expression.left) + scans(expression.right)
    if isinstance(expression, UnionAll):
        return [scan for part in expression.parts for scan in scans(part)]
    return []


def evaluate(
    expression: Expression,
    database: Database,
    budget: Optional[Budget] = None,
) -> ResultSet:
    """Evaluate an algebra expression against *database*.

    Every operator polls the optional *budget* before materializing its
    output, and the join loop polls it (amortized) per produced row, so
    a runaway query aborts with a typed
    :class:`~repro.errors.TimeoutExceeded` instead of hanging the
    backend.
    """
    if budget is not None:
        budget.check()
    if isinstance(expression, Scan):
        table = database.table(expression.table)
        prefix = expression.label
        columns = [f"{prefix}.{column}" for column in table.columns]
        return ResultSet(columns, list(table.rows))
    if isinstance(expression, Selection):
        if isinstance(expression.source, Join):
            return _evaluate_join(
                expression.source, expression.conditions, database, budget
            )
        source = evaluate(expression.source, database, budget)
        predicate = _compile_conditions(expression.conditions, source)
        return ResultSet(source.columns, [row for row in source.rows if predicate(row)])
    if isinstance(expression, Projection):
        source = evaluate(expression.source, database, budget)
        indices = [_resolve(source.columns, column) for column in expression.columns]
        names = expression.names or tuple(
            _strip(source.columns[i]) for i in indices
        )
        rows = [tuple(row[i] for i in indices) for row in source.rows]
        result = ResultSet(names, rows)
        return result.distinct() if expression.distinct else result
    if isinstance(expression, Join):
        return _evaluate_join(expression, (), database, budget)
    if isinstance(expression, Rename):
        source = evaluate(expression.source, database, budget)
        columns = [
            f"{expression.prefix}.{_strip(column)}" for column in source.columns
        ]
        return ResultSet(columns, source.rows)
    if isinstance(expression, UnionAll):
        parts = [evaluate(part, database, budget) for part in expression.parts]
        width = len(parts[0].columns)
        for part in parts[1:]:
            if len(part.columns) != width:
                raise MappingError("UNION branches have different arities")
        rows = [row for part in parts for row in part.rows]
        return ResultSet(parts[0].columns, rows)
    raise TypeError(f"not an algebra expression: {expression!r}")


def _evaluate_join(
    join: Join,
    conditions: Sequence[Condition],
    database: Database,
    budget: Optional[Budget],
) -> ResultSet:
    """Evaluate ``Selection(Join(...), conditions)`` as a hash equi-join.

    The unfolder emits joins with ``on=()`` and parks every join
    condition in the selection above, which the naive path used to
    evaluate as a full cross product followed by a filter.  Here the
    conditions are classified instead: equalities spanning the two sides
    become hash-join keys, side-local conditions filter their input
    before the join, and everything else (e.g. ``!=`` across the sides)
    runs as a residual filter over the joined rows.  Bucketing goes
    through :class:`~repro.obda.sql.stats.JoinIndex`, which keys on the
    same string forms ``equal()`` compares (including the ``on`` pairs,
    so join and selection equality agree), and the output columns/rows
    are exactly those of the filtered cross product.
    """
    left = evaluate(join.left, database, budget)
    right = evaluate(join.right, database, budget)
    left_keys = [_resolve(left.columns, l) for l, _ in join.on]
    right_keys = [_resolve(right.columns, r) for _, r in join.on]
    columns = list(left.columns) + list(right.columns)
    width = len(left.columns)
    combined = ResultSet(columns, [])
    left_conditions: List[Condition] = []
    right_conditions: List[Condition] = []
    residual: List[Condition] = []
    for condition in conditions:
        refs = [
            _resolve(combined.columns, side)
            for side in (condition.left, condition.right)
            if not isinstance(side, Const)
        ]
        if (
            condition.operator == "="
            and len(refs) == 2
            and (refs[0] < width) != (refs[1] < width)
        ):
            left_index, right_index = sorted(refs)
            left_keys.append(left_index)
            right_keys.append(right_index - width)
        elif all(index < width for index in refs):
            left_conditions.append(condition)
        elif all(index >= width for index in refs):
            right_conditions.append(condition)
        else:
            residual.append(condition)
    if left_conditions:
        predicate = _compile_conditions(left_conditions, left)
        left = ResultSet(
            left.columns, [row for row in left.rows if predicate(row)]
        )
    if right_conditions:
        predicate = _compile_conditions(right_conditions, right)
        right = ResultSet(
            right.columns, [row for row in right.rows if predicate(row)]
        )
    index = JoinIndex()
    for row in right.rows:
        if budget is not None:
            budget.tick()
        index.add([row[i] for i in right_keys], row)
    residual_predicate = (
        _compile_conditions(residual, combined) if residual else None
    )
    rows = []
    for row in left.rows:
        for match in index.probe([row[i] for i in left_keys]):
            if budget is not None:
                budget.tick()
            joined = row + match
            if residual_predicate is None or residual_predicate(joined):
                rows.append(joined)
    return ResultSet(columns, rows)


def _strip(column: str) -> str:
    return column.rsplit(".", 1)[-1]


def _resolve(columns: Tuple[str, ...], column: str) -> int:
    """Resolve a possibly-unqualified column name against the columns of
    a result: an exact name at its last position, else the one column of
    that unqualified name."""
    if column in columns:
        return len(columns) - 1 - columns[::-1].index(column)
    matches = [
        index
        for index, name in enumerate(columns)
        if _strip(name) == column
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise MappingError(f"no column {column!r} in {columns}")
    raise MappingError(f"ambiguous column {column!r} in {columns}")


def _compile_conditions(conditions: Sequence[Condition], source: ResultSet):
    compiled = []
    for condition in conditions:
        left_const = isinstance(condition.left, Const)
        right_const = isinstance(condition.right, Const)
        left = condition.left.value if left_const else _resolve(source.columns, condition.left)
        right = (
            condition.right.value if right_const else _resolve(source.columns, condition.right)
        )
        compiled.append((left_const, left, right_const, right, condition.operator))

    def equal(left_value, right_value) -> bool:
        return str(left_value) == str(right_value)

    def predicate(row) -> bool:
        for left_const, left, right_const, right, operator in compiled:
            left_value = left if left_const else row[left]
            right_value = right if right_const else row[right]
            if operator == "=":
                if not equal(left_value, right_value):
                    return False
            elif operator == "!=":
                if equal(left_value, right_value):
                    return False
            else:
                raise MappingError(f"unsupported operator {operator!r}")
        return True

    return predicate
