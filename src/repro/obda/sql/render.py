"""Render algebra expressions back to SQL text.

OBDA's selling point is that rewritten queries are "directly
translatable into SQL" (paper §7); this module makes that translation
visible: every algebra tree — including the ones the unfolder builds
from mappings — pretty-prints as an executable SELECT statement in the
engine's dialect, so users can inspect or export what would be shipped
to a real DBMS.
"""

from __future__ import annotations

import re
from typing import List

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

__all__ = ["algebra_to_sql"]

#: Identifiers matching this and not in :data:`_RESERVED` render bare.
_BARE_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Common SQL keywords that must be quoted when used as identifiers.
_RESERVED = frozenset(
    """
    all and as asc between by case cast check collate create cross current
    default delete desc distinct drop else end escape except exists foreign
    from full group having in index inner insert intersect into is join key
    left like limit natural not null on or order outer primary references
    right select set table then to union unique update using values when
    where
    """.split()
)


def _identifier(name: str) -> str:
    """Quote *name* only when required (keyword or exotic characters)."""
    if _BARE_IDENTIFIER.match(name) and name.lower() not in _RESERVED:
        return name
    return '"' + name.replace('"', '""') + '"'


def _column(name: str) -> str:
    """Render a (possibly table-qualified) column reference."""
    return ".".join(_identifier(part) for part in name.split("."))


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return str(value)
    return "'" + str(value).replace("'", "''") + "'"


def _condition(condition: Condition) -> str:
    def side(term) -> str:
        if isinstance(term, Const):
            return _literal(term.value)
        return _column(str(term))

    # SQL's three-valued logic makes `x = NULL` vacuously unknown; the
    # engine's equality treats NULL as an ordinary value, so render
    # NULL comparisons with the null-safe IS / IS NOT forms.
    for this, other in (
        (condition.left, condition.right),
        (condition.right, condition.left),
    ):
        if isinstance(this, Const) and this.value is None:
            operator = "IS NOT" if condition.operator == "!=" else "IS"
            return f"{side(other)} {operator} NULL"
    operator = "<>" if condition.operator == "!=" else condition.operator
    return f"{side(condition.left)} {operator} {side(condition.right)}"


class _Renderer:
    def __init__(self):
        self.alias_counter = 0

    def fresh_alias(self) -> str:
        self.alias_counter += 1
        return f"t{self.alias_counter}"

    def render(self, expression: Expression, top: bool = True) -> str:
        """Render to a full SELECT statement."""
        sources: List[str] = []
        conditions: List[str] = []
        columns_out: List[str] = []
        self._flatten(expression, sources, conditions, columns_out)
        if columns_out:
            select_list = ", ".join(columns_out)
        else:
            select_list = "*"
        from_clause = ", ".join(sources) if sources else "(VALUES (1)) AS dual"
        sql = f"SELECT DISTINCT {select_list} FROM {from_clause}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql

    def _flatten(
        self,
        expression: Expression,
        sources: List[str],
        conditions: List[str],
        columns_out: List[str],
    ) -> None:
        if isinstance(expression, Scan):
            label = expression.label
            sources.append(
                _identifier(expression.table)
                if label == expression.table
                else f"{_identifier(expression.table)} AS {_identifier(label)}"
            )
            return
        if isinstance(expression, Rename):
            inner = self.render(expression.source, top=False)
            sources.append(f"({inner}) AS {_identifier(expression.prefix)}")
            return
        if isinstance(expression, Selection):
            self._flatten(expression.source, sources, conditions, columns_out)
            conditions.extend(_condition(c) for c in expression.conditions)
            return
        if isinstance(expression, Join):
            self._flatten(expression.left, sources, conditions, columns_out)
            self._flatten(expression.right, sources, conditions, columns_out)
            conditions.extend(
                f"{_column(left)} = {_column(right)}"
                for left, right in expression.on
            )
            return
        if isinstance(expression, Projection):
            self._flatten(expression.source, sources, conditions, columns_out)
            names = expression.names or tuple(
                column.rsplit(".", 1)[-1] for column in expression.columns
            )
            columns_out.extend(
                _column(column)
                if column.rsplit(".", 1)[-1] == name
                else f"{_column(column)} AS {_identifier(name)}"
                for column, name in zip(expression.columns, names)
            )
            return
        if isinstance(expression, UnionAll):
            rendered = " UNION ".join(
                self.render(part, top=False) for part in expression.parts
            )
            sources.append(f"({rendered}) AS {self.fresh_alias()}")
            return
        raise TypeError(f"not an algebra expression: {expression!r}")


def algebra_to_sql(expression: Expression) -> str:
    """Render an algebra tree as a SELECT statement (UNIONs at the top).

    One renderer serves the whole tree, so generated subquery aliases
    are unique and deterministic (``t1``, ``t2``, … in left-to-right
    flattening order) even across top-level UNION branches.
    """
    renderer = _Renderer()
    if isinstance(expression, UnionAll):
        return " UNION ".join(
            renderer.render(part, top=False) for part in expression.parts
        )
    return renderer.render(expression)
