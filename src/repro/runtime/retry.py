"""Retry policies: exponential backoff with deterministic jitter.

Practical OBDA deployments sit on sources that fail transiently — lock
timeouts, connection blips, overloaded endpoints.  A
:class:`RetryPolicy` classifies exceptions into retryable and not,
sleeps an exponentially growing, deterministically jittered delay
between attempts, and converts an exhausted retry loop into a typed
:class:`~repro.errors.PermanentSourceError` (never a bare exception).

Determinism matters for reproducibility: the jitter stream is derived
from ``(seed, task, attempt)``, so a failing run replays identically.
Delays are also capped by the remaining time of an optional
:class:`~repro.runtime.budget.Budget` so a retry loop can never sleep
through a deadline.

The two wrappers at the bottom put the policy where the paper's stack
actually touches unreliable I/O: the virtual-extent provider and the
SQL backend.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from ..errors import PermanentSourceError, TransientSourceError
from ..obda.evaluation import ExtentProvider
from ..obda.sql.database import Database, DatabaseView
from ..obs.metrics import global_metrics
from ..obs.trace import current_tracer
from .budget import Budget

__all__ = ["RetryPolicy", "RetryingExtents", "RetryingDatabase"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a transient failure.

    >>> policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
    >>> policy.retryable_error(TransientSourceError("blip"))
    True
    >>> policy.retryable_error(ValueError("bug"))
    False
    """

    #: Total attempts including the first one (1 = no retries).
    max_attempts: int = 4
    #: Delay before the first retry; doubles (``multiplier``) each attempt.
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    #: Hard cap on a single delay, pre-jitter.
    max_delay_s: float = 2.0
    #: Fraction of each delay randomized away (0 = none, 1 = full jitter).
    jitter: float = 0.5
    #: Seed of the deterministic jitter stream.
    seed: int = 0
    #: Exception classes worth retrying; everything else propagates.
    retryable: Tuple[Type[BaseException], ...] = (TransientSourceError,)
    #: Injectable sleep, so tests can record delays instead of waiting.
    sleep: Callable[[float], None] = time.sleep

    def retryable_error(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def jitter_stream(self, task: str) -> "_JitterStream":
        """A private, seeded jitter stream for one retry loop.

        Each :meth:`call` invocation owns its own stream — no state is
        shared between calls, so concurrent retry loops cannot perturb
        each other's draws and every ``(seed, task, attempt)`` triple
        maps to the same delay no matter how threads interleave.
        """
        return _JitterStream(self, task)

    def delay_s(self, attempt: int, task: str = "") -> float:
        """The (deterministic) delay after failed attempt number *attempt*.

        A pure function of ``(seed, task, attempt)`` — equal to what a
        :meth:`jitter_stream` for the same task yields at that attempt.
        """
        return self.jitter_stream(task).delay_s(attempt)

    def call(
        self,
        fn: Callable,
        *args,
        task: str = "source call",
        budget: Optional[Budget] = None,
        **kwargs,
    ):
        """Run ``fn(*args, **kwargs)`` under this policy.

        Non-retryable exceptions propagate untouched.  When the attempt
        allowance is exhausted the last transient failure is wrapped in
        a :class:`PermanentSourceError` (cause preserved), so callers
        downstream see one typed "the source is effectively down" error.
        """
        tracer = current_tracer()
        metrics = global_metrics()
        jitter = self.jitter_stream(task)  # per-call: see jitter_stream()
        attempt = 1
        while True:
            if budget is not None:
                budget.check()
            metrics.counter("runtime.retry.attempts").inc()
            try:
                # The span closes with status "error" when fn raises, so a
                # traced run shows exactly which attempts failed and why.
                with tracer.span("source-call") as span:
                    span.annotate(task=task, attempt=attempt)
                    return fn(*args, **kwargs)
            except BaseException as error:  # noqa: BLE001 — classified below
                if not self.retryable_error(error):
                    raise
                metrics.counter("runtime.retry.transient_failures").inc()
                if attempt >= self.max_attempts:
                    metrics.counter("runtime.retry.exhausted").inc()
                    logger.info(
                        "%s: retry policy exhausted after %d attempt(s): %s",
                        task,
                        attempt,
                        error,
                    )
                    raise PermanentSourceError(
                        f"{task} still failing after {attempt} attempt(s): {error}"
                    ) from error
                delay = jitter.delay_s(attempt)
                if budget is not None:
                    remaining = budget.remaining_s
                    if remaining is not None:
                        if remaining <= 0:
                            budget.check()  # raises TimeoutExceeded with task name
                        delay = min(delay, remaining)
                logger.debug(
                    "%s: attempt %d failed transiently (%s); retrying in %.4fs",
                    task,
                    attempt,
                    error,
                    delay,
                )
                if delay > 0:
                    self.sleep(delay)
                attempt += 1


class _JitterStream:
    """The jitter source of a single retry loop.

    Not shared and not locked: each stream belongs to exactly one
    :meth:`RetryPolicy.call` frame.  The delay for attempt *N* is keyed
    as ``(seed, task, N)`` rather than by draw order, so the stream is
    insensitive to how many attempts other threads happen to make.
    """

    __slots__ = ("policy", "task")

    def __init__(self, policy: RetryPolicy, task: str):
        self.policy = policy
        self.task = task

    def delay_s(self, attempt: int) -> float:
        policy = self.policy
        raw = min(
            policy.base_delay_s * policy.multiplier ** (attempt - 1),
            policy.max_delay_s,
        )
        if policy.jitter <= 0.0 or raw <= 0.0:
            return raw
        rng = random.Random(f"{policy.seed}:{self.task}:{attempt}")
        return raw * (1.0 - policy.jitter * rng.random())


class RetryingExtents(ExtentProvider):
    """An :class:`ExtentProvider` that retries transient source failures."""

    def __init__(
        self,
        inner: ExtentProvider,
        policy: RetryPolicy,
        budget: Optional[Budget] = None,
    ):
        self.inner = inner
        self.policy = policy
        self.budget = budget

    # The tables come from the wrapped provider, so a wrapper built per
    # call shares its tables and their indexes; a pull inside the lookup
    # is retried like any other.
    def table(self, predicate: str, arity: int):
        return self.policy.call(
            self.inner.table,
            predicate,
            arity,
            task=f"extent:{predicate}",
            budget=self.budget,
        )

    def generation(self) -> int:
        return self.inner.generation()

    def invalidate(self) -> None:
        self.inner.invalidate()


class RetryingDatabase(DatabaseView):
    """A :class:`Database` proxy that retries transient table access.

    Shares the inner database's table registry (``in`` checks, listing)
    and generation, but routes every :meth:`table` lookup — the access
    path of the SQL algebra evaluator — through the retry policy.
    """

    def __init__(
        self,
        inner: Database,
        policy: RetryPolicy,
        budget: Optional[Budget] = None,
    ):
        super().__init__(inner)
        self.policy = policy
        self.budget = budget

    def table(self, name: str):
        return self.policy.call(
            self.inner.table, name, task=f"table:{name}", budget=self.budget
        )
