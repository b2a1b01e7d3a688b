"""Seeded chaos-soak drill for the concurrency-hardened engine.

The concurrency hardening is *tested under fire*: :func:`run_soak`
hammers one shared :class:`~repro.obda.system.OBDASystem` from worker
threads with a mixed workload — certain-answer queries, ABox inserts,
TBox axiom adds — while a seeded
:class:`~repro.runtime.faults.FaultInjector` makes the extent source
misbehave, and then proves four invariants:

* **zero lost updates** — every journaled mutation is visible in the
  final TBox/ABox;
* **zero stale answers** — every answer set equals the certain answers
  of *some* state between its two generation stamps, read from the
  journal before and after the query.  The workload is monotone (only
  additions), so answers are validated against a serial oracle
  bracket: ``oracle(stamp_before) ⊆ answers ⊆ oracle(stamp_after)``,
  with exact equality when the stamps match a journaled state.  A query
  whose source retries ran out (a :class:`~repro.errors.SourceError`)
  is recorded as degraded and has no answers to check.  Every other
  query (by a seeded stream of its own) runs without the retry policy,
  and a transient fault that reaches such a query degrades it the same
  way.  With the policy or without it, a query reads the system's
  shared providers (a retry context wraps them, Presto's derived
  extents included), so both halves race them;
* **zero deadlocks** — every worker joins within the drill's timeout;
* **zero errors** — no worker raised anything else.

Determinism: one seed drives the per-thread operation streams, the
fault lottery and the retry jitter, so a failing drill replays
identically (thread *interleaving* still varies — the invariants hold
for every interleaving, which is the point of soaking).

The drill reports a machine-readable dict (``repro soak`` serializes it
as JSON), suitable for CI gating: ``report["invariants"]["ok"]``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..dllite.abox import (
    ABox,
    Assertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from ..dllite.axioms import Axiom, ConceptInclusion
from ..dllite.syntax import AtomicConcept, AtomicRole, ExistentialRole, InverseRole
from ..dllite.tbox import TBox
from ..errors import SourceError
from .faults import FaultInjector, FaultSpec
from .retry import RetryPolicy

__all__ = ["SoakConfig", "run_soak"]

Stamp = Tuple[int, int]  # (tbox generation, data generation)


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak drill (all deterministic given ``seed``)."""

    seed: int = 0
    threads: int = 8
    ops_per_thread: int = 40
    #: probability an operation is a query; the rest are mutations
    query_ratio: float = 0.6
    #: probability a mutation is an axiom add (vs an ABox insert)
    axiom_ratio: float = 0.2
    #: fault injection on the extent source (0 disables)
    transient_rate: float = 0.05
    slow_rate: float = 0.02
    slow_call_s: float = 0.002
    method: str = "perfectref"
    #: a worker that has not joined by then counts as deadlocked
    join_timeout_s: float = 120.0


# -- the shared ontology under attack ---------------------------------------

_PERSON = AtomicConcept("Person")
_PROFESSOR = AtomicConcept("Professor")
_STUDENT = AtomicConcept("Student")
_COURSE = AtomicConcept("Course")
_TEACHES = AtomicRole("teaches")
_ATTENDS = AtomicRole("attends")
_MENTORS = AtomicRole("mentors")


def _base_axioms() -> List[Axiom]:
    return [
        ConceptInclusion(_PROFESSOR, _PERSON),
        ConceptInclusion(_STUDENT, _PERSON),
        ConceptInclusion(ExistentialRole(_TEACHES), _PROFESSOR),
        ConceptInclusion(ExistentialRole(InverseRole(_TEACHES)), _COURSE),
        ConceptInclusion(ExistentialRole(_ATTENDS), _STUDENT),
        ConceptInclusion(ExistentialRole(InverseRole(_ATTENDS)), _COURSE),
    ]


#: monotone (positive-inclusion) adds — the KB stays consistent, and the
#: certain answers only ever grow, which is what makes the serial-oracle
#: bracket check sound under any interleaving
_AXIOM_POOL: List[Axiom] = [
    ConceptInclusion(AtomicConcept("Lecturer"), _PROFESSOR),
    ConceptInclusion(AtomicConcept("Dean"), _PROFESSOR),
    ConceptInclusion(AtomicConcept("Visiting"), _PROFESSOR),
    ConceptInclusion(AtomicConcept("TA"), _STUDENT),
    ConceptInclusion(AtomicConcept("GradStudent"), _STUDENT),
    ConceptInclusion(AtomicConcept("Seminar"), _COURSE),
    ConceptInclusion(AtomicConcept("Lab"), _COURSE),
    ConceptInclusion(ExistentialRole(_MENTORS), _PROFESSOR),
    ConceptInclusion(ExistentialRole(InverseRole(_MENTORS)), _STUDENT),
    ConceptInclusion(AtomicConcept("Tutor"), _PERSON),
]

_ASSERT_CONCEPTS = [
    _PROFESSOR,
    _STUDENT,
    _COURSE,
    AtomicConcept("Lecturer"),
    AtomicConcept("TA"),
    AtomicConcept("GradStudent"),
    AtomicConcept("Seminar"),
]

_ASSERT_ROLES = [_TEACHES, _ATTENDS, _MENTORS]

_QUERY_POOL = [
    "q(x) :- Person(x)",
    "q(x) :- Professor(x)",
    "q(x) :- Student(x)",
    "q(x) :- Course(x)",
    "q(x, y) :- teaches(x, y)",
    "q(x) :- Professor(x), teaches(x, y)",
    "q(x) :- teaches(x, y), Course(y)",
]


def _base_assertions() -> List[Assertion]:
    assertions: List[Assertion] = []
    for index in range(4):
        professor = Individual(f"base_p{index}")
        course = Individual(f"base_c{index}")
        student = Individual(f"base_s{index}")
        assertions.append(ConceptAssertion(_PROFESSOR, professor))
        assertions.append(RoleAssertion(_TEACHES, professor, course))
        assertions.append(RoleAssertion(_ATTENDS, student, course))
    return assertions


# -- journal -----------------------------------------------------------------


class _Journal:
    """Serialized mutation log with post-mutation generation stamps.

    The lock spans (apply mutation, read stamps, append), so journal
    order *is* stamp order and each entry's stamp describes exactly the
    state after its mutation — the replay oracle depends on this.
    Mutations are cheap (a set add + counter bump); queries take this
    lock only to read their two stamps, never while they evaluate.
    """

    def __init__(self, tbox: TBox, abox: ABox):
        self._tbox = tbox
        self._abox = abox
        self._lock = threading.Lock()
        self.entries: List[Tuple[str, object, Stamp]] = []

    def stamp(self) -> Stamp:
        with self._lock:
            return (self._tbox.generation, self._abox.generation)

    def add_axiom(self, axiom: Axiom) -> None:
        with self._lock:
            self._tbox.add(axiom)
            stamp = (self._tbox.generation, self._abox.generation)
            self.entries.append(("axiom", axiom, stamp))

    def add_assertion(self, assertion: Assertion) -> None:
        with self._lock:
            self._abox.add(assertion)
            stamp = (self._tbox.generation, self._abox.generation)
            self.entries.append(("assert", assertion, stamp))


# -- the serial oracle -------------------------------------------------------


class _Oracle:
    """Serial replays of journal prefixes, evaluated cold and cached."""

    def __init__(self, journal: _Journal, base_stamp: Stamp, method: str):
        self._entries = journal.entries
        self._stamps: List[Stamp] = [base_stamp] + [
            entry[2] for entry in self._entries
        ]
        self._method = method
        self._systems: Dict[int, object] = {}
        self._answers: Dict[Tuple[int, str], frozenset] = {}

    def lower_prefix(self, stamp: Stamp) -> int:
        """Largest prefix whose state is certainly ≤ *stamp*."""
        best = 0
        for index, candidate in enumerate(self._stamps):
            if candidate[0] <= stamp[0] and candidate[1] <= stamp[1]:
                best = index
        return best

    def upper_prefix(self, stamp: Stamp) -> int:
        """Smallest prefix whose state is certainly ≥ *stamp*."""
        for index, candidate in enumerate(self._stamps):
            if candidate[0] >= stamp[0] and candidate[1] >= stamp[1]:
                return index
        return len(self._stamps) - 1

    def exact_prefix(self, stamp: Stamp) -> Optional[int]:
        for index, candidate in enumerate(self._stamps):
            if candidate == stamp:
                return index
        return None

    def _system(self, prefix: int):
        system = self._systems.get(prefix)
        if system is None:
            from ..obda.system import OBDASystem

            axioms = _base_axioms()
            assertions = _base_assertions()
            for kind, payload, _ in self._entries[:prefix]:
                if kind == "axiom":
                    axioms.append(payload)
                else:
                    assertions.append(payload)
            system = OBDASystem(
                TBox(axioms, name="soak-oracle"),
                abox=ABox(assertions),
                enable_caches=False,
            )
            self._systems[prefix] = system
        return system

    def answers(self, prefix: int, query: str) -> frozenset:
        key = (prefix, query)
        cached = self._answers.get(key)
        if cached is None:
            cached = frozenset(
                self._system(prefix).certain_answers(
                    query, method=self._method, check_consistency=False
                )
            )
            self._answers[key] = cached
        return cached


# -- the drill ---------------------------------------------------------------


@dataclass(frozen=True)
class _QueryRecord:
    query: str
    #: None when the query's source retries ran out (a degraded query)
    answers: Optional[frozenset]
    stamp_before: Stamp
    stamp_after: Stamp


def run_soak(config: SoakConfig = SoakConfig()) -> Dict[str, object]:
    """Run one drill; returns the machine-readable soak report."""
    from ..obda.evaluation import ABoxExtents
    from ..obda.system import OBDASystem
    from ..obs.metrics import global_metrics

    start = time.perf_counter()
    tbox = TBox(_base_axioms(), name="soak")
    abox = ABox(_base_assertions())
    system = OBDASystem(tbox, abox=abox, enable_caches=True)
    injector: Optional[FaultInjector] = None
    if config.transient_rate > 0 or config.slow_rate > 0:
        from .faults import FaultyExtents

        injector = FaultInjector(
            FaultSpec(
                transient_rate=config.transient_rate,
                slow_rate=config.slow_rate,
                slow_call_s=config.slow_call_s,
                seed=config.seed,
            )
        )
        # Pre-install the shared provider behind the fault wrapper; the
        # wrapper delegates generation(), so invalidation still works.
        system._shared_extents = FaultyExtents(ABoxExtents(abox), injector)
    policy = RetryPolicy(
        max_attempts=5, base_delay_s=0.0005, max_delay_s=0.005, seed=config.seed
    )
    journal = _Journal(tbox, abox)
    base_stamp = journal.stamp()

    records: List[_QueryRecord] = []
    errors: List[str] = []
    results_lock = threading.Lock()
    expected_mutations: List[Tuple[str, object]] = []

    def worker(thread_id: int) -> None:
        rng = random.Random(f"{config.seed}:{thread_id}")
        # a stream of its own, so the operation stream stays as seeded
        retries = random.Random(f"{config.seed}:{thread_id}:retry")
        axiom_pool = list(_AXIOM_POOL)
        rng.shuffle(axiom_pool)
        local_records: List[_QueryRecord] = []
        local_mutations: List[Tuple[str, object]] = []
        try:
            for op in range(config.ops_per_thread):
                roll = rng.random()
                if roll < config.query_ratio:
                    query = rng.choice(_QUERY_POOL)
                    retry = policy if retries.random() < 0.5 else None
                    stamp_before = journal.stamp()
                    try:
                        answers = frozenset(
                            system.certain_answers(
                                query,
                                method=config.method,
                                check_consistency=False,
                                retry=retry,
                            )
                        )
                    except SourceError:  # a fault outlasted the retries, if any
                        answers = None
                    local_records.append(
                        _QueryRecord(query, answers, stamp_before, journal.stamp())
                    )
                elif rng.random() < config.axiom_ratio and axiom_pool:
                    axiom = axiom_pool.pop()
                    journal.add_axiom(axiom)
                    local_mutations.append(("axiom", axiom))
                else:
                    assertion = _make_assertion(rng, thread_id, op)
                    journal.add_assertion(assertion)
                    local_mutations.append(("assert", assertion))
        except BaseException as error:  # noqa: BLE001 — a soak failure datum
            with results_lock:
                errors.append(
                    f"thread {thread_id}: {type(error).__name__}: {error}"
                )
        finally:
            with results_lock:
                records.extend(local_records)
                expected_mutations.extend(local_mutations)

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"soak-{index}")
        for index in range(config.threads)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + config.join_timeout_s
    deadlocked: List[str] = []
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            deadlocked.append(thread.name)
    elapsed_workload_s = time.perf_counter() - start

    invariants = _validate(
        config, journal, base_stamp, records, tbox, abox, deadlocked, errors
    )
    invariants["ok"] = not any(invariants.values())

    degraded = sum(1 for record in records if record.answers is None)
    report: Dict[str, object] = {
        "config": asdict(config),
        "totals": {
            "operations": len(records) + len(expected_mutations),
            "queries": len(records),
            "mutations": {
                "asserts": sum(
                    1 for kind, _ in expected_mutations if kind == "assert"
                ),
                "axioms": sum(
                    1 for kind, _ in expected_mutations if kind == "axiom"
                ),
            },
            "outcomes": {"ok": len(records) - degraded, "degraded": degraded},
        },
        "faults": {
            "calls": injector.calls if injector else 0,
            "transients_injected": injector.transients_injected if injector else 0,
            "slow_calls_injected": injector.slow_calls_injected if injector else 0,
        },
        "invariants": invariants,
        "duration_s": round(time.perf_counter() - start, 6),
        "workload_s": round(elapsed_workload_s, 6),
    }
    snapshot = global_metrics().snapshot()
    report["metrics"] = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith(("runtime.retry.", "perf."))
    }
    return report


def _make_assertion(rng: random.Random, thread_id: int, op: int) -> Assertion:
    """A fresh, thread-unique assertion (pools are disjoint by name)."""
    if rng.random() < 0.5:
        concept = rng.choice(_ASSERT_CONCEPTS)
        return ConceptAssertion(concept, Individual(f"t{thread_id}_i{op}"))
    role = rng.choice(_ASSERT_ROLES)
    return RoleAssertion(
        role,
        Individual(f"t{thread_id}_s{op}"),
        Individual(f"t{thread_id}_o{op}"),
    )


def _validate(
    config: SoakConfig,
    journal: _Journal,
    base_stamp: Stamp,
    records: List[_QueryRecord],
    tbox: TBox,
    abox: ABox,
    deadlocked: List[str],
    errors: List[str],
) -> Dict[str, object]:
    """Check the drill's invariants; lists are empty when all is well."""
    lost: List[str] = []
    for kind, payload, _ in journal.entries:
        if kind == "axiom" and payload not in tbox:
            lost.append(f"axiom missing from final TBox: {payload}")
        elif kind == "assert" and payload not in abox:
            lost.append(f"assertion missing from final ABox: {payload}")

    stale: List[str] = []
    oracle = _Oracle(journal, base_stamp, config.method)
    for record in records:
        answers = record.answers
        if answers is None:
            continue  # degraded: the source stayed down, nothing to check
        exact = (
            oracle.exact_prefix(record.stamp_before)
            if record.stamp_before == record.stamp_after
            else None
        )
        if exact is not None:
            expected = oracle.answers(exact, record.query)
            if answers != expected:
                stale.append(
                    f"stale answers for {record.query!r} at stamp "
                    f"{record.stamp_before}: got {len(answers)}, "
                    f"oracle says {len(expected)}"
                )
            continue
        lower = oracle.answers(oracle.lower_prefix(record.stamp_before), record.query)
        upper = oracle.answers(oracle.upper_prefix(record.stamp_after), record.query)
        if not lower <= answers:
            stale.append(
                f"stale answers for {record.query!r}: missing "
                f"{len(lower - answers)} tuple(s) already entailed "
                f"at stamp {record.stamp_before}"
            )
        if not answers <= upper:
            stale.append(
                f"phantom answers for {record.query!r}: "
                f"{len(answers - upper)} tuple(s) not entailed "
                f"even at stamp {record.stamp_after}"
            )

    return {
        "lost_updates": lost,
        "stale_answers": stale,
        "deadlocks": [f"worker did not join: {name}" for name in deadlocked],
        "errors": errors,
    }
