"""Deadlines and budgets: bounded execution for every layer of the stack.

The Figure 1 harness always had a per-cell timeout (the paper: "Timeout
was set at one hour"), but only the classification engines honoured it.
:class:`Budget` generalizes that machinery so the *whole* OBDA pipeline
— rewriting, unfolding, SQL evaluation, consistency checking — can poll
one shared budget and abort with a typed, named
:class:`~repro.errors.TimeoutExceeded` instead of hanging.

Design notes:

* A :class:`Deadline` is an absolute point on the monotonic clock; a
  :class:`Budget` is a started stopwatch with an optional allowance and
  a *task name* that ends up in the ``TimeoutExceeded`` it raises.
* ``check()`` is one ``perf_counter()`` call — cheap enough for most
  loops.  Truly hot inner loops (the join recursion, the PerfectRef
  worklist) use :meth:`Budget.tick`, which only pays for the clock once
  every *stride* calls.
* Every reasoner and the graph classifier take an optional budget as
  ``watch`` and poll ``watch.check()``.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..errors import TimeoutExceeded

__all__ = ["Deadline", "Budget"]


class Deadline:
    """An absolute point on the monotonic clock (``time.perf_counter``)."""

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline *seconds* from now."""
        return cls(time.perf_counter() + seconds)

    def remaining_s(self) -> float:
        """Seconds until the deadline (negative once it has passed)."""
        return self.at - time.perf_counter()

    def expired(self) -> bool:
        return self.remaining_s() <= 0.0

    def __repr__(self) -> str:
        return f"Deadline(in {self.remaining_s():.3f}s)"


class Budget:
    """A pollable time budget for a named task.

    >>> budget = Budget(budget_s=None, task="demo")
    >>> budget.check()             # unbounded budgets never raise
    >>> budget.elapsed_s >= 0
    True

    Hot loops poll :meth:`check` (or the amortized :meth:`tick`); when
    the allowance is exhausted a :class:`~repro.errors.TimeoutExceeded`
    carrying :attr:`task` is raised.  A budget with ``budget_s=None`` is
    unbounded and never raises, so call sites need no ``if`` guards
    beyond ``budget is not None``.
    """

    #: Default stride of :meth:`tick` — clock polled once per this many calls.
    TICK_STRIDE = 1024

    def __init__(self, budget_s: Optional[float] = None, task: str = "task"):
        self.budget_s = budget_s
        self.task = task
        self._start = time.perf_counter()
        self._ticks = 0

    # -- clock -----------------------------------------------------------------

    def restart(self) -> None:
        self._start = time.perf_counter()
        self._ticks = 0

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._start

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_s * 1000.0

    @property
    def remaining_s(self) -> Optional[float]:
        """Seconds left in the allowance; ``None`` when unbounded."""
        if self.budget_s is None:
            return None
        return self.budget_s - self.elapsed_s

    @property
    def deadline(self) -> Optional[Deadline]:
        if self.budget_s is None:
            return None
        return Deadline(self._start + self.budget_s)

    def expired(self) -> bool:
        return self.budget_s is not None and self.elapsed_s > self.budget_s

    # -- polling ---------------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`TimeoutExceeded` (naming :attr:`task`) if exhausted."""
        if self.budget_s is not None and self.elapsed_s > self.budget_s:
            # Cold branch only: the metrics import must stay off the poll path.
            from ..obs.metrics import global_metrics

            global_metrics().counter("runtime.budget.expired").inc()
            raise TimeoutExceeded(self.budget_s, self.elapsed_s, task=self.task)

    def tick(self, stride: Optional[int] = None) -> None:
        """Amortized :meth:`check` for hot loops: clock once per *stride* calls."""
        self._ticks += 1
        if self._ticks >= (stride or self.TICK_STRIDE):
            self._ticks = 0
            self.check()

    # -- derivation ------------------------------------------------------------

    def scoped(self, task: str) -> "Budget":
        """A view of the same running budget under a sub-task name.

        The child shares this budget's start time and allowance, so time
        spent anywhere in the task tree counts against the one budget;
        only the task reported on timeout changes.
        """
        child = Budget(self.budget_s, task=task)
        child._start = self._start
        return child

    @classmethod
    def ensure(
        cls, value: Union[None, int, float, "Budget"], task: str = "task"
    ) -> Optional["Budget"]:
        """Coerce ``None`` / seconds / an existing budget into a budget.

        Numbers start a fresh budget named *task*; an existing budget is
        returned as-is so callers can thread one allowance through many
        layers.
        """
        if value is None:
            return None
        if isinstance(value, Budget):
            return value
        return cls(float(value), task=task)

    def __repr__(self) -> str:
        if self.budget_s is None:
            return f"Budget({self.task!r}, unbounded, elapsed {self.elapsed_s:.3f}s)"
        return (
            f"Budget({self.task!r}, {self.budget_s:.3f}s, "
            f"elapsed {self.elapsed_s:.3f}s)"
        )
