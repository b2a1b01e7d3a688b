"""repro.runtime — the resilient execution layer.

Bounded, degradable execution for the whole OBDA stack:

* :mod:`repro.runtime.budget` — deadlines and pollable, named time
  budgets;
* :mod:`repro.runtime.retry` — exponential backoff with deterministic
  jitter around extent providers and the SQL backend;
* :mod:`repro.runtime.fallback` — reasoner chains that degrade from an
  expensive engine to the graph classifier, with result metadata;
* :mod:`repro.runtime.faults` — seeded fault injection used by the
  tier-1 resilience tests;
* :mod:`repro.runtime.execution` — the context object
  ``OBDASystem`` threads through a query;
* :mod:`repro.runtime.concurrency` — single-flight deduplication, which
  the classification cache runs its cold computations through;
* :mod:`repro.runtime.soak` — the seeded chaos-soak drill behind the
  ``repro soak`` CLI command.

Only :mod:`.budget` is imported eagerly: it is a leaf module, and
every reasoner imports :class:`Budget` from it.  The heavier modules
import the OBDA and baseline layers — which themselves import
:mod:`.budget` — so they are loaded lazily via PEP 562 to keep the
import graph acyclic.
"""

from __future__ import annotations

from .budget import Budget, Deadline

__all__ = [
    "Budget",
    "ChainResult",
    "Deadline",
    "EngineAttempt",
    "ExecutionContext",
    "FallbackChain",
    "FaultInjector",
    "FaultSpec",
    "FaultyDatabase",
    "FaultyExtents",
    "FaultyReasoner",
    "RetryPolicy",
    "RetryingDatabase",
    "RetryingExtents",
    "SingleFlight",
    "SoakConfig",
    "run_soak",
]

_LAZY = {
    "RetryPolicy": "retry",
    "RetryingExtents": "retry",
    "RetryingDatabase": "retry",
    "FallbackChain": "fallback",
    "ChainResult": "fallback",
    "EngineAttempt": "fallback",
    "FaultSpec": "faults",
    "FaultInjector": "faults",
    "FaultyExtents": "faults",
    "FaultyDatabase": "faults",
    "FaultyReasoner": "faults",
    "ExecutionContext": "execution",
    "SingleFlight": "concurrency",
    "SoakConfig": "soak",
    "run_soak": "soak",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
