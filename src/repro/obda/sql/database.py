"""The database: a named collection of tables."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence

from ...errors import MappingError
from .table import Table

__all__ = ["Database", "DatabaseView"]


class Database:
    """A collection of :class:`Table` objects addressed by name.

    >>> db = Database("campus")
    >>> _ = db.create_table("person", ["id", "name"])
    >>> db["person"].insert((1, "ada"))
    >>> len(db["person"])
    1
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        #: serializes schema changes and generation bumps
        self._lock = threading.Lock()
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotone counter covering schema *and* row changes.

        One counter, read in O(1): :meth:`create_table` and
        :meth:`add_table` bump it, and so does every insert into a table
        this database holds (the table notifies its databases after the
        row is in).  :class:`~repro.obda.evaluation.MappingExtents`
        snapshots it to invalidate its cross-query extent/index caches
        the moment any table gains rows or the schema changes.
        """
        return self._generation

    def _bump(self) -> None:
        with self._lock:
            self._generation += 1

    def create_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence] = ()
    ) -> Table:
        return self.add_table(Table(name, columns, rows))

    def add_table(self, table: Table) -> Table:
        with self._lock:
            if table.name in self._tables:
                raise MappingError(
                    f"table {table.name!r} already exists in database {self.name!r}"
                )
            self._tables[table.name] = table
        # Attached before the bump: an insert racing this call lands
        # either before the bump, which covers it, or after the attach,
        # which notifies this database.
        table._attach(self)
        self._bump()
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            with self._lock:
                known = ", ".join(sorted(self._tables)) or "none"
            raise MappingError(
                f"database {self.name!r} has no table {name!r} "
                f"(tables: {known})"
            ) from None

    def __getitem__(self, name: str) -> Table:
        return self.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def with_retry(self, policy, budget=None) -> "Database":
        """This database behind a :class:`repro.runtime.retry.RetryPolicy`.

        Table lookups (the access path of the SQL evaluator) retry
        transient source failures with backoff; see
        :class:`repro.runtime.retry.RetryingDatabase`.
        """
        from ...runtime.retry import RetryingDatabase

        return RetryingDatabase(self, policy, budget=budget)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, {len(self._tables)} tables)"


class DatabaseView(Database):
    """A proxy over another database: the same tables, the same
    generation, schema changes forwarded; subclasses change how
    :meth:`table` reaches a table."""

    def __init__(self, inner: Database):
        super().__init__(name=inner.name)
        self.inner = inner
        self._tables = inner._tables

    @property
    def generation(self) -> int:
        return self.inner.generation

    def add_table(self, table: Table) -> Table:
        return self.inner.add_table(table)
