"""Tables of the in-memory relational engine.

The OBDA data layer (paper §1: "the data stored at the sources") is
simulated by a small relational engine: named tables with named columns,
rows as tuples of Python scalars.  It is deliberately schema-light — the
engine exists to exercise mapping unfolding and rewriting evaluation, not
to be a DBMS.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...errors import MappingError

__all__ = ["Table"]

Row = Tuple[object, ...]


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

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {list(self.columns)}, {len(self.rows)} rows)"
