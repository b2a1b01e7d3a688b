"""In-flight deduplication for the OBDA stack's shared caches.

Shared rewriting and classification caches are what make
rewriting-based OBDA fast in practice, so they must survive concurrent
readers and writers without corruption.  This module supplies
:class:`SingleFlight` — keyed in-flight deduplication: N threads asking
for the same expensive computation (classifying one TBox fingerprint)
run it *once* and share the result, exceptions included.

Locking discipline (see DESIGN.md "Concurrency hardening"): the flight
table's lock is a leaf — no code path acquires another repro lock while
holding it, and it is released while the computation runs.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["SingleFlight"]


class _Flight:
    """One in-flight computation: an event plus its eventual outcome."""

    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Keyed in-flight deduplication of expensive computations.

    The first caller of :meth:`do` for a key becomes the *leader* and
    runs the function; callers arriving while the flight is open become
    *followers* and block until the leader finishes, then share its
    result (or its exception).  The flight closes when the leader
    returns, so later calls start a fresh computation — this is
    *in-flight* dedup, not a cache; pair it with an LRU for memoization.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}

    def do(self, key: Hashable, fn: Callable[[], Any]) -> Tuple[Any, bool]:
        """Run ``fn()`` once per open flight of *key*.

        Returns ``(result, leader)`` where *leader* is True for the
        caller that actually computed.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
        if leader:
            try:
                flight.result = fn()
            except BaseException as error:
                flight.error = error
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.result, True
        flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return flight.result, False

    def in_flight(self) -> int:
        """How many keys are currently being computed."""
        with self._lock:
            return len(self._flights)
