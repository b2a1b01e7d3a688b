"""Algebra trees as conjunctive queries over the source tables.

The mapping dialect (:mod:`repro.obda.sql.sqlparser`) has SELECT-FROM-
JOIN-WHERE blocks whose conditions compare columns and constants with
``=`` and ``!=``, plus UNION, and the unfolder only joins, selects and
projects such sources.  So every unfolded part is a union of
conjunctive queries with inequalities over the tables, which the
compiled join of :mod:`repro.obda.evaluation` runs over the tables' own
hash indexes (:meth:`~repro.obda.sql.table.Table.index`) and
:class:`~repro.obda.sql.backends.SqliteBackend` renders as SQL, one
SELECT per query.  :func:`table_cqs` converts a tree into those queries:

* every :class:`~repro.obda.sql.algebra.Scan` is one atom over its
  table, with one argument per column of the table;
* columns resolve exactly as :func:`~repro.obda.sql.algebra.evaluate`
  resolves them (an exact name first, then a unique unqualified one),
  through the same function and with the same
  :class:`~repro.errors.MappingError`\\ s;
* ``=`` merges columns and constants into classes (union-find).  A
  class holding constants of two string forms has no row, nor has a
  ``!=`` between two sides of one class; any other ``!=`` stays a check
  on the join;
* a constant may be a :class:`Parameter`, a symbolic constant whose
  value a query's call supplies: a class fixed by a parameter and by a
  literal, or by two parameters, keeps an equality that
  :class:`Binding` checks when the call binds its values, and a ``!=``
  with a parameter side stays in the query;
* a UNION becomes one query per branch, and a join of unions the
  product of their branches;
* every output column reads the raw cell of the column it names, never
  the constant its class is fixed to nor a column it is joined with:
  ``flag = 1`` matches the cells ``1`` and ``"1"``, and each is output
  as it is stored.

Cells compare by their string forms, as in the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from ...errors import MappingError
from ...runtime.budget import Budget
from .algebra import (
    Const,
    Expression,
    Join,
    Projection,
    Rename,
    Scan,
    Selection,
    UnionAll,
    _resolve,
    _strip,
    scans,
)

__all__ = ["Binding", "Parameter", "TableCQ", "table_cqs"]

#: a column of one atom: ``(atom, position)``
_Ref = Tuple[int, int]
_Side = Union[_Ref, Const]


@dataclass(frozen=True)
class Parameter:
    """A constant of a query's call, symbolic until the call binds it: the
    string form of the call's constant number *index* (no *template*: a
    raw value column), or the value of placeholder *position* that
    *template* parses out of it.  The unfolder puts it in a
    :class:`~repro.obda.sql.algebra.Const` where a query constant meets a
    mapping term."""

    index: int
    template: Optional[object]
    position: int


class TableCQ(NamedTuple):
    """A conjunctive query with inequalities over source tables.

    ``tables`` names the table each atom reads.  Per atom, per column,
    ``shapes`` holds the part the column plays: a constant's string form
    (str), the slot of its class (int), or None when nothing reads it;
    ``captures`` the ``(position, slot)`` pairs of the columns output as
    raw cells.  ``unequal`` lists the pairs of class slots or constant
    string forms that must differ; ``answer`` the output slots, in
    column order, and ``size`` the number of slots.

    A shape or ``unequal`` side may be a :class:`Parameter`, and
    ``checks`` lists the pairs of parameters and constant string forms
    that must be equal.  Such a query is bound per call
    (:meth:`Binding.bind`).
    """

    tables: Tuple[str, ...]
    shapes: Tuple[Tuple[object, ...], ...]
    captures: Tuple[Tuple[Tuple[int, int], ...], ...]
    unequal: Tuple[Tuple[object, object], ...]
    answer: Tuple[int, ...]
    size: int
    checks: Tuple[Tuple[object, object], ...] = ()

    def labels(self) -> List[str]:
        """Each atom as ``table(x0, 'prof', _)``: a slot ``x<n>``, a
        quoted constant or ``_`` per column."""
        labels = []
        for table, shape, captures in zip(self.tables, self.shapes, self.captures):
            captured = dict(captures)
            parts = []
            for position, part in enumerate(shape):
                if isinstance(part, str):
                    parts.append(repr(part))
                elif part is not None:
                    parts.append(f"x{part}")
                elif position in captured:
                    parts.append(f"x{captured[position]}")
                else:
                    parts.append("_")
            labels.append(f"{table}({', '.join(parts)})")
        return labels


#: one conjunctive branch of a converted tree, a plain tuple (branches are
#: built by the thousand): ``(tables, widths, refs, equal, unequal)`` — the
#: table of each atom and its width, the column each output reads, and the
#: ``(side, side)`` pairs that must be equal and unequal
_Branch = Tuple[
    Tuple[str, ...],
    Tuple[int, ...],
    Tuple[_Ref, ...],
    Tuple[Tuple[_Side, _Side], ...],
    Tuple[Tuple[_Side, _Side], ...],
]


def table_cqs(
    expression: Expression,
    table: Callable[[str], object],
    outputs: bool = True,
    budget: Optional[Budget] = None,
    sources: Optional[Dict[int, tuple]] = None,
) -> Tuple[Tuple[str, ...], List[TableCQ]]:
    """*expression* as table CQs: its output column names and one query
    per satisfiable branch.  ``table(name)`` serves the table a scan
    reads (only its columns are used), so a database's
    :meth:`~repro.obda.sql.database.Database.table` raises its own error
    for a missing one.  Without *outputs* the queries output nothing:
    they only ask whether the tree has a row.  A join of unions has as
    many branches as the product of theirs, so *budget* is ticked per
    branch built and per branch finished.

    The conversion of each renamed subtree (in an unfolded part, a
    mapping source) is kept in *sources* for the columns of the tables
    it scans; a mapping collection passes one, so that the parts of
    every unfolding over it convert each of its sources once.

    A tree whose constants include :class:`Parameter`\\ s converts as if
    each were a constant of its own.
    """
    if sources is None:
        sources = {}
    columns, branches = _convert(expression, table, budget, sources)
    cqs = []
    for branch in branches:
        if budget is not None:
            budget.tick()
        cq = _finish(branch, outputs)
        if cq is not None:
            cqs.append(cq)
    return columns, cqs


def _convert(
    expression: Expression,
    table: Callable[[str], object],
    budget: Optional[Budget],
    sources: Dict[int, tuple],
) -> Tuple[Tuple[str, ...], List[_Branch]]:
    """The output columns of *expression* and its conjunctive branches,
    resolved in the order the evaluator resolves them."""
    if isinstance(expression, Rename):
        columns, branches = _source(expression.source, table, budget, sources)
        prefix = expression.prefix
        return tuple([f"{prefix}.{_strip(name)}" for name in columns]), branches
    if isinstance(expression, Projection):
        columns, branches = _convert(expression.source, table, budget, sources)
        indices = [_resolve(columns, column) for column in expression.columns]
        names = expression.names or tuple(_strip(columns[i]) for i in indices)
        return tuple(names), [
            (tables, widths, tuple([refs[i] for i in indices]), equal, unequal)
            for tables, widths, refs, equal, unequal in branches
        ]
    if isinstance(expression, Selection):
        columns, branches = _convert(expression.source, table, budget, sources)
        conditions = []
        for condition in expression.conditions:
            sides = [
                side if isinstance(side, Const) else _resolve(columns, side)
                for side in (condition.left, condition.right)
            ]
            if condition.operator not in ("=", "!="):
                raise MappingError(f"unsupported operator {condition.operator!r}")
            conditions.append((sides, condition.operator == "="))
        return columns, [_restrict(branch, conditions) for branch in branches]
    if isinstance(expression, Join):
        left_columns, lefts = _convert(expression.left, table, budget, sources)
        right_columns, rights = _convert(expression.right, table, budget, sources)
        left_keys = [_resolve(left_columns, column) for column, _ in expression.on]
        right_keys = [_resolve(right_columns, column) for _, column in expression.on]
        branches = []
        for first in lefts:
            for second in rights:
                if budget is not None:
                    budget.tick()
                second = _shifted(second, len(first[0]))
                on = tuple(
                    [(first[2][i], second[2][j]) for i, j in zip(left_keys, right_keys)]
                )
                branches.append(
                    (
                        first[0] + second[0],
                        first[1] + second[1],
                        first[2] + second[2],
                        first[3] + second[3] + on,
                        first[4] + second[4],
                    )
                )
        return left_columns + right_columns, branches
    if isinstance(expression, Scan):
        names = tuple(table(expression.table).columns)
        prefix = expression.label
        branch = (
            (expression.table,),
            (len(names),),
            tuple([(0, position) for position in range(len(names))]),
            (),
            (),
        )
        return tuple([f"{prefix}.{name}" for name in names]), [branch]
    if isinstance(expression, UnionAll):
        parts = [_convert(part, table, budget, sources) for part in expression.parts]
        width = len(parts[0][0])
        for columns, _ in parts[1:]:
            if len(columns) != width:
                raise MappingError("UNION branches have different arities")
        return parts[0][0], [branch for _, branches in parts for branch in branches]
    raise TypeError(f"not an algebra expression: {expression!r}")


def _source(
    expression: Expression,
    table: Callable[[str], object],
    budget: Optional[Budget],
    sources: Dict[int, tuple],
) -> Tuple[Tuple[str, ...], List[_Branch]]:
    """:func:`_convert` of a renamed *expression*, kept in *sources*
    under its identity (the entry holds it, so the identity is never
    reused) per tuple of the columns of the tables it scans."""
    entry = sources.get(id(expression))
    if entry is None:
        names = tuple(dict.fromkeys(scan.table for scan in scans(expression)))
        entry = sources[id(expression)] = (expression, names, {})
    _, names, conversions = entry
    columns = tuple([table(name).columns for name in names])
    converted = conversions.get(columns)
    if converted is None:
        converted = conversions[columns] = _convert(expression, table, budget, sources)
    return converted


def _restrict(branch: _Branch, conditions) -> _Branch:
    """*branch* under resolved conditions: ``(sides, is_equality)``, a
    side being a :class:`Const` or an output column index."""
    tables, widths, refs, equal, unequal = branch
    added: Tuple[List, List] = ([], [])
    for sides, is_equality in conditions:
        added[is_equality].append(
            tuple([side if side.__class__ is Const else refs[side] for side in sides])
        )
    return tables, widths, refs, equal + tuple(added[1]), unequal + tuple(added[0])


def _shifted(branch: _Branch, offset: int) -> _Branch:
    """*branch* with its atoms numbered from *offset*."""
    tables, widths, refs, equal, unequal = branch
    if not offset:
        return branch
    return (
        tables,
        widths,
        tuple([(atom + offset, position) for atom, position in refs]),
        tuple([_shifted_pair(pair, offset) for pair in equal]),
        tuple([_shifted_pair(pair, offset) for pair in unequal]),
    )


def _shifted_pair(pair, offset: int):
    return tuple(
        [side if side.__class__ is Const else (side[0] + offset, side[1]) for side in pair]
    )


def _text(value: object) -> str:
    return value if isinstance(value, str) else str(value)


def _value(const: Const) -> object:
    """A constant's part in a class: its string form, or the
    :class:`Parameter` itself."""
    value = const.value
    return value if value.__class__ is Parameter else _text(value)


def _find(parent: Dict[_Ref, _Ref], ref: _Ref) -> _Ref:
    """The root of *ref*'s class (union-find without rank: classes are a
    handful of columns)."""
    while ref in parent:
        ref = parent[ref]
    return ref


def _equate(first: object, second: object, checks: list) -> bool:
    """Whether constants *first* and *second* may be equal: two string
    forms decide it now, a pair with a :class:`Parameter` side is left to
    bind time in *checks*."""
    if first == second:
        return True
    if first.__class__ is str and second.__class__ is str:
        return False
    checks.append((first, second))
    return True


def _finish(branch: _Branch, outputs: bool) -> Optional[TableCQ]:
    """*branch* as a :class:`TableCQ`, or None when it has no row."""
    tables, widths, refs, equal_pairs, unequal_pairs = branch
    parent: Dict[_Ref, _Ref] = {}
    constant: Dict[_Ref, object] = {}
    checks: List[Tuple[object, object]] = []
    named: Set[_Ref] = set()
    for left, right in equal_pairs:
        if left.__class__ is Const:
            left, right = right, left
        if left.__class__ is Const:
            if not _equate(_value(left), _value(right), checks):
                return None
            continue
        named.add(left)
        root = _find(parent, left)
        if right.__class__ is Const:
            fixed: object = _value(right)
        else:
            named.add(right)
            other = _find(parent, right)
            if other == root:
                continue
            parent[other] = root
            fixed = constant.pop(other, None)
        if fixed is not None and not _equate(
            constant.setdefault(root, fixed), fixed, checks
        ):
            return None
    unequal: List[Tuple[object, object]] = []
    for pair in unequal_pairs:
        sides = []
        for side in pair:
            if side.__class__ is Const:
                sides.append(_value(side))
            else:
                named.add(side)
                root = _find(parent, side)
                sides.append(constant.get(root, root))
        if sides[0] == sides[1]:
            return None  # a class, or one constant, never differs from itself
        if not (sides[0].__class__ is str and sides[1].__class__ is str):
            unequal.append(tuple(sides))
    # Only a column a condition names can share its class or be fixed to
    # a constant; every other column is read by nothing but an output.
    shapes: List[List[object]] = [[None] * width for width in widths]
    slot_of: Dict[_Ref, int] = {}
    if named:
        roots = {ref: _find(parent, ref) for ref in sorted(named)}
        members: Dict[_Ref, int] = {}
        for root in roots.values():
            members[root] = members.get(root, 0) + 1
        for pair in unequal:
            for side in pair:
                if side.__class__ is tuple:
                    members[side] = 2
        for (atom, position), root in roots.items():
            if root in constant:
                shapes[atom][position] = constant[root]
            elif members[root] > 1:
                shapes[atom][position] = slot_of.setdefault(root, len(slot_of))
    size = len(slot_of)
    captures: List[List[Tuple[int, int]]] = [[] for _ in widths]
    answer: List[int] = []
    if outputs:
        captured: Dict[_Ref, int] = {}
        for ref in refs:
            slot = captured.get(ref)
            if slot is None:
                slot = captured[ref] = size
                size += 1
                captures[ref[0]].append((ref[1], slot))
            answer.append(slot)
    return TableCQ(
        tables,
        tuple([tuple(shape) for shape in shapes]),
        tuple([tuple(atom) for atom in captures]),
        tuple(
            [
                tuple([slot_of[side] if side.__class__ is tuple else side for side in pair])
                for pair in unequal
            ]
        ),
        tuple(answer),
        size,
        tuple(checks),
    )


class Binding:
    """The constants of one call (their string forms, by parameter
    index), bound into the table CQs of an unfolding whose constants are
    :class:`Parameter`\\ s.  Each ``(index, template)`` pair is parsed
    once per binding; a binding lives in its call alone, so an unfolding
    and its conversions stay shared by calls with other constants."""

    __slots__ = ("keys", "_parsed")

    def __init__(self, keys: Sequence[str]):
        self.keys = keys
        self._parsed: Dict[Tuple[int, object], Optional[Tuple[str, ...]]] = {}

    def value(self, parameter: Parameter) -> Optional[str]:
        """*parameter*'s string form in this call, or None when its
        template cannot parse the constant."""
        index, template = parameter.index, parameter.template
        if template is None:
            return self.keys[index]
        try:
            values = self._parsed[index, template]
        except KeyError:
            values = self._parsed[index, template] = template.parse(self.keys[index])
        return None if values is None else values[parameter.position]

    def bind(self, cq: TableCQ) -> Optional[TableCQ]:
        """*cq* with this call's string forms in place of its parameters,
        or None when it has no row in this call: a parameter's template
        does not parse its constant, a check's sides differ or an
        inequality's sides are equal."""
        value = self.value
        for pair in cq.checks:
            left, right = [value(side) if side.__class__ is Parameter else side for side in pair]
            if left is None or left != right:
                return None
        unequal = []
        for pair in cq.unequal:
            sides = [value(side) if side.__class__ is Parameter else side for side in pair]
            if sides[0] is None or sides[1] is None:
                return None
            if sides[0].__class__ is str and sides[1].__class__ is str:
                if sides[0] == sides[1]:
                    return None
                continue
            unequal.append(tuple(sides))
        shapes = []
        for shape in cq.shapes:
            bound = list(shape)
            for position, part in enumerate(shape):
                if part.__class__ is Parameter:
                    part = bound[position] = value(part)
                    if part is None:
                        return None
            shapes.append(tuple(bound))
        return cq._replace(shapes=tuple(shapes), unequal=tuple(unequal), checks=())
