"""Tests for repro.runtime.faults — deterministic fault injection.

Includes the acceptance scenario of the resilience work: with seeded
transient faults at a 30% rate, ``OBDASystem.certain_answers`` under a
retry policy returns the same certain answers as the fault-free run;
with a permanent source fault it raises a typed
:class:`~repro.errors.PermanentSourceError` (no hang, no bare exception).
"""

import time

import pytest

from repro.dllite import AtomicConcept, AtomicRole, parse_tbox
from repro.errors import (
    PermanentSourceError,
    ReproError,
    TransientSourceError,
)
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.evaluation import ExtentProvider
from repro.obda.mapping import IriTemplate
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    FaultyDatabase,
    FaultyExtents,
    RetryingExtents,
    RetryPolicy,
)

TRANSIENT_RATE = 0.3
SEED = 7


def make_campus_db():
    db = Database("campus")
    db.create_table(
        "staff", ["id", "role"], [(1, "prof"), (2, "prof"), (3, "lecturer")]
    )
    db.create_table(
        "teaching", ["staff_id", "course"], [(1, "logic"), (2, "compilers")]
    )
    db.create_table("enrolled", ["sid"], [(10,), (11,)])
    return db


def make_university(database):
    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches^- isa Course
        Student isa not Teacher
        funct teaches^-
        """
    )
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'lecturer'",
                [TargetAtom(AtomicConcept("Teacher"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT staff_id, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (
                            IriTemplate("person/{staff_id}"),
                            IriTemplate("course/{course}"),
                        ),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT sid FROM enrolled",
                [TargetAtom(AtomicConcept("Student"), (IriTemplate("person/{sid}"),))],
            ),
        ]
    )
    return OBDASystem(tbox, mappings=mappings, database=database)


# -- acceptance: recovery under seeded transient faults ------------------------


@pytest.mark.parametrize("method", ("perfectref", "perfectref-sql", "presto"))
def test_acceptance_transient_faults_recover_to_identical_answers(method):
    query = "q(x) :- Person(x)"
    baseline = make_university(make_campus_db()).certain_answers(
        query, method=method
    )
    injector = FaultInjector(
        FaultSpec(transient_rate=TRANSIENT_RATE, seed=SEED)
    )
    faulty = make_university(FaultyDatabase(make_campus_db(), injector))
    policy = RetryPolicy(max_attempts=8, base_delay_s=0.0, seed=SEED)
    answers = faulty.certain_answers(query, method=method, retry=policy)
    assert answers == baseline
    assert injector.transients_injected > 0  # faults really happened


def test_acceptance_permanent_outage_raises_typed_error():
    injector = FaultInjector(FaultSpec(permanent_after=0))
    system = make_university(FaultyDatabase(make_campus_db(), injector))
    policy = RetryPolicy(max_attempts=8, base_delay_s=0.0, seed=SEED)
    started = time.monotonic()
    with pytest.raises(PermanentSourceError) as info:
        system.certain_answers("q(x) :- Person(x)", retry=policy)
    assert time.monotonic() - started < 5.0  # no hang
    assert isinstance(info.value, ReproError)  # typed, never bare


# -- the injector itself -------------------------------------------------------


def run_lottery(spec, calls=200):
    injector = FaultInjector(spec)
    outcomes = []
    for i in range(calls):
        try:
            injector.before_call(f"call:{i}")
            outcomes.append("ok")
        except TransientSourceError:
            outcomes.append("transient")
        except PermanentSourceError:
            outcomes.append("permanent")
    return injector, outcomes


def test_injector_is_deterministic():
    spec = FaultSpec(transient_rate=0.3, seed=SEED)
    first, outcomes_a = run_lottery(spec)
    second, outcomes_b = run_lottery(spec)
    assert outcomes_a == outcomes_b
    assert first.transients_injected == second.transients_injected
    assert "transient" in outcomes_a and "ok" in outcomes_a
    # A different seed produces a different fault sequence.
    _, outcomes_c = run_lottery(FaultSpec(transient_rate=0.3, seed=SEED + 1))
    assert outcomes_a != outcomes_c
    # The rate is roughly respected (loose bound; it is a seeded stream).
    rate = outcomes_a.count("transient") / len(outcomes_a)
    assert 0.15 < rate < 0.45


def test_permanent_after_threshold():
    injector, outcomes = run_lottery(FaultSpec(permanent_after=2), calls=5)
    assert outcomes == ["ok", "ok", "permanent", "permanent", "permanent"]
    assert injector.calls == 2  # admitted calls only


def test_slow_faults_add_latency():
    injector = FaultInjector(FaultSpec(slow_rate=1.0, slow_call_s=0.01))
    started = time.monotonic()
    injector.before_call("t")
    assert time.monotonic() - started >= 0.01
    assert injector.slow_calls_injected == 1


class StaticExtents(ExtentProvider):
    def __init__(self, rows):
        self.rows = rows

    def extent(self, predicate, arity):
        return set(self.rows)


def test_faulty_extents_fault_index_calls_too():
    outage = FaultyExtents(
        StaticExtents({("a",)}), FaultInjector(FaultSpec(permanent_after=0))
    )
    with pytest.raises(PermanentSourceError):
        outage.table("P", 1).index((0,))
    with pytest.raises(PermanentSourceError):
        outage.table("P", 1)


def test_faulty_extents_under_retry_recover():
    inner = StaticExtents({("a",), ("b",)})
    injector = FaultInjector(FaultSpec(transient_rate=0.5, seed=3))
    provider = RetryingExtents(
        FaultyExtents(inner, injector),
        RetryPolicy(max_attempts=10, base_delay_s=0.0),
    )
    for i in range(20):
        assert provider.extent(f"P{i}", 1) == {("a",), ("b",)}
    assert injector.transients_injected > 0
