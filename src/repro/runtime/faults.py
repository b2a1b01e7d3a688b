"""Deterministic fault injection for the OBDA stack.

The resilience claims of this repo are *tested*, not asserted: these
wrappers inject seeded transient faults, permanent outages and slow
calls into the three seams where the system touches something that can
fail — extent providers, the SQL backend, and classification engines —
and the tier-1 suite proves that every failure mode either recovers
(retry), degrades (fallback chain) or surfaces a typed
:class:`~repro.errors.ReproError`.  Never a bare exception, never a hang.

Determinism: one :class:`FaultInjector` owns a ``random.Random(seed)``
stream and a call counter, so a given ``(spec, call sequence)`` always
produces the same faults.  Wrappers sharing an injector share the
stream, which models one flaky source behind several access paths.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..errors import PermanentSourceError, TransientSourceError
from ..obda.evaluation import ExtentProvider
from ..obda.sql.database import Database, DatabaseView

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "FaultyExtents",
    "FaultyDatabase",
    "FaultyReasoner",
]


@dataclass(frozen=True)
class FaultSpec:
    """What to inject, and how often.

    ``permanent_after`` turns the source permanently unavailable after
    that many calls have been admitted (0 = down from the start, ``None``
    = never).  ``transient_rate`` is the per-call probability of a
    :class:`TransientSourceError`; ``slow_rate``/``slow_call_s`` add
    latency to a fraction of calls (for deadline tests).
    """

    transient_rate: float = 0.0
    permanent_after: Optional[int] = None
    slow_rate: float = 0.0
    slow_call_s: float = 0.0
    seed: int = 0


class FaultInjector:
    """Seeded fault decision source shared by the faulty wrappers."""

    def __init__(self, spec: FaultSpec):
        import random

        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.calls = 0
        self.transients_injected = 0
        self.slow_calls_injected = 0
        #: makes the (counter check, counter bump, rng draw) sequence one
        #: atomic step, so concurrent callers see a serialized lottery —
        #: ``permanent_after=N`` admits exactly N calls, never N±k, and
        #: the seeded stream is consumed one whole decision at a time.
        self._lock = threading.Lock()

    def before_call(self, task: str) -> None:
        """Run the fault lottery for one call; raises or returns.

        Thread-safe: the decision (including every RNG draw) happens
        under the injector's lock; only the injected *sleep* runs
        outside it, so slow-call faults don't serialize other callers.
        """
        spec = self.spec
        with self._lock:
            if spec.permanent_after is not None and self.calls >= spec.permanent_after:
                raise PermanentSourceError(
                    f"{task}: source permanently unavailable "
                    f"(injected after {self.calls} call(s))"
                )
            self.calls += 1
            sleep_s = 0.0
            if spec.slow_rate > 0.0 and self.rng.random() < spec.slow_rate:
                self.slow_calls_injected += 1
                sleep_s = spec.slow_call_s
            if spec.transient_rate > 0.0 and self.rng.random() < spec.transient_rate:
                self.transients_injected += 1
                raise TransientSourceError(
                    f"{task}: injected transient fault "
                    f"#{self.transients_injected} (call {self.calls})"
                )
        if sleep_s > 0.0:
            time.sleep(sleep_s)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(calls={self.calls}, "
            f"transients={self.transients_injected}, "
            f"slow={self.slow_calls_injected})"
        )


class FaultyExtents(ExtentProvider):
    """An extent provider whose source misbehaves on purpose."""

    def __init__(self, inner: ExtentProvider, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def extent(self, predicate: str, arity: int):
        self.injector.before_call(f"extent:{predicate}")
        return self.inner.extent(predicate, arity)

    # Delegate cache-coherence hooks so a wrapped provider still tracks
    # the underlying data: without these, the default generation()==0
    # would keep serving index snapshots across ABox/database mutation.
    def generation(self) -> int:
        return self.inner.generation()

    def invalidate(self) -> None:
        self.inner.invalidate()
        super().invalidate()


class FaultyDatabase(DatabaseView):
    """A database whose table lookups misbehave on purpose."""

    def __init__(self, inner: Database, injector: FaultInjector):
        super().__init__(inner)
        self.injector = injector

    def table(self, name: str):
        self.injector.before_call(f"table:{name}")
        return self.inner.table(name)


class FaultyReasoner:
    """A classification engine that misbehaves on purpose.

    Duck-typed to the :class:`repro.baselines.base.Reasoner` interface
    (``name``, ``complete``, ``classify_named``, ``measure``) so it can
    stand in anywhere a reasoner is accepted — in particular as a flaky
    first link of a :class:`~repro.runtime.fallback.FallbackChain`.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.name = f"faulty:{inner.name}"
        self.complete = inner.complete

    def classify_named(self, tbox, watch=None):
        self.injector.before_call(f"classify:{self.inner.name}")
        return self.inner.classify_named(tbox, watch=watch)

    def measure(self, tbox, watch=None) -> int:
        self.injector.before_call(f"measure:{self.inner.name}")
        return self.inner.measure(tbox, watch=watch)

    def __repr__(self) -> str:
        return f"<FaultyReasoner {self.name!r}>"
