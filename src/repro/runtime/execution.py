"""Execution contexts: one object carrying a query's resilience settings.

``OBDASystem.certain_answers`` threads a budget and a retry policy
through rewriting, unfolding, extent access and SQL evaluation.  An
:class:`ExecutionContext` bundles the two (plus the wrapping helpers)
so call sites pass one object instead of two loose arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .budget import Budget

if TYPE_CHECKING:  # import cycle: retry/obda import this module's importers
    from ..obda.evaluation import ExtentProvider
    from ..obda.sql.database import Database
    from .retry import RetryPolicy

__all__ = ["ExecutionContext"]


@dataclass
class ExecutionContext:
    """Budget + retry policy for one unit of OBDA work."""

    budget: Optional[Budget] = None
    retry: Optional["RetryPolicy"] = None

    @classmethod
    def create(
        cls,
        budget: Union[None, int, float, Budget] = None,
        retry: Optional[RetryPolicy] = None,
        task: str = "obda",
    ) -> "ExecutionContext":
        """Normalize loose user inputs (seconds, a watch, None) into a context."""
        return cls(budget=Budget.ensure(budget, task=task), retry=retry)

    def scoped(self, task: str) -> Optional[Budget]:
        """The shared budget viewed under a sub-task name (None if unbounded)."""
        if self.budget is None:
            return None
        return self.budget.scoped(task)

    def check(self) -> None:
        if self.budget is not None:
            self.budget.check()

    def wrap_extents(self, provider: "ExtentProvider") -> "ExtentProvider":
        """Put the retry policy between the pipeline and an extent provider."""
        if self.retry is None:
            return provider
        from .retry import RetryingExtents

        return RetryingExtents(provider, self.retry, budget=self.budget)

    def wrap_database(self, database: "Database") -> "Database":
        """Put the retry policy between the SQL evaluator and the backend."""
        if self.retry is None:
            return database
        from .retry import RetryingDatabase

        return RetryingDatabase(database, self.retry, budget=self.budget)
