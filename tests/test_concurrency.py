"""Multi-threaded hammer tests for the concurrency-hardened engine.

Each test drives shared state from many threads and asserts the
invariants the hardening is supposed to buy: no lost counter updates,
no torn cache entries, single-flight classification, and — the big one
— an :class:`~repro.obda.system.OBDASystem` whose concurrent answers
always match a serial oracle over the final state.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.dllite.abox import ABox, ConceptAssertion, Individual, RoleAssertion
from repro.dllite.axioms import ConceptInclusion
from repro.dllite.syntax import AtomicConcept, AtomicRole, ExistentialRole
from repro.dllite.tbox import TBox
from repro.obda.sql.database import Database
from repro.obda.system import OBDASystem
from repro.obs.metrics import global_metrics
from repro.perf.cache import CacheStats, ClassificationCache, LRUCache
from repro.runtime.concurrency import AtomicCounter, SingleFlight

THREADS = 8


def _run_threads(target, count=THREADS):
    """Start *count* threads on *target(index)* and join them all."""
    errors = []

    def runner(index):
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive(), "worker thread did not finish (deadlock?)"
    if errors:
        raise errors[0]
    return threads


# -- primitives ---------------------------------------------------------------


def test_atomic_counter_loses_no_increments():
    counter = AtomicCounter()
    increments = 2000

    def work(_index):
        for _ in range(increments):
            counter.increment()

    _run_threads(work)
    assert counter.value == THREADS * increments


def test_cache_stats_counters_are_atomic():
    stats = CacheStats(name="hammered")
    rounds = 2000

    def work(_index):
        for _ in range(rounds):
            stats.record_hit()
            stats.record_miss()

    _run_threads(work)
    hits, misses, _, _ = stats.snapshot()
    assert hits == THREADS * rounds
    assert misses == THREADS * rounds
    assert stats.lookups == 2 * THREADS * rounds


def test_lru_cache_survives_concurrent_mixed_use():
    cache = LRUCache(maxsize=32, name="hammered-lru")
    rounds = 1500

    def work(index):
        rng = random.Random(index)
        for turn in range(rounds):
            key = rng.randrange(64)
            if rng.random() < 0.5:
                cache.put(key, (index, turn))
            else:
                value = cache.get(key)
                if value is not None:
                    assert isinstance(value, tuple) and len(value) == 2
            if turn % 500 == 0:
                cache.invalidate()

    _run_threads(work)
    assert len(cache) <= 32
    hits, misses, evictions, invalidations = cache.stats.snapshot()
    # every get recorded exactly once, no torn bookkeeping
    assert hits + misses <= THREADS * rounds
    assert invalidations >= 0 and evictions >= 0


def test_single_flight_runs_leader_once_and_shares():
    flights = SingleFlight()
    barrier = threading.Barrier(THREADS)
    computed = AtomicCounter()
    release = threading.Event()
    results = []
    results_lock = threading.Lock()

    def compute():
        computed.increment()
        release.wait(10.0)
        return "value"

    def work(_index):
        barrier.wait(10.0)
        if computed.value == 0:
            # make sure somebody is already inside before followers join
            pass
        result, leader = flights.do("key", compute, timeout=10.0)
        with results_lock:
            results.append((result, leader))

    threads = [
        threading.Thread(target=work, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    # let every thread reach the flight, then release the leader
    import time

    deadline = time.monotonic() + 5.0
    while computed.value == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)
    release.set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()

    assert computed.value >= 1
    assert all(result == "value" for result, _ in results)
    leaders = [leader for _, leader in results if leader]
    assert len(leaders) == computed.value  # one leader per actual run


def test_single_flight_propagates_leader_exception():
    flights = SingleFlight()

    def boom():
        raise ValueError("leader failed")

    with pytest.raises(ValueError):
        flights.do("key", boom)
    assert flights.in_flight() == 0


# -- single-flight classification --------------------------------------------


def _diamond_tbox(width=12):
    top = AtomicConcept("Top")
    axioms = []
    for index in range(width):
        mid = AtomicConcept(f"Mid{index}")
        axioms.append(ConceptInclusion(AtomicConcept(f"Leaf{index}"), mid))
        axioms.append(ConceptInclusion(mid, top))
    return TBox(axioms, name="diamond")


def test_concurrent_classification_is_single_flight():
    cache = ClassificationCache()
    tbox = _diamond_tbox()
    computes = global_metrics().counter("perf.classification.computes")
    before = computes.value
    barrier = threading.Barrier(THREADS)
    results = []
    results_lock = threading.Lock()

    def work(_index):
        barrier.wait(10.0)
        classification = cache.classify(tbox)
        with results_lock:
            results.append(classification)

    _run_threads(work)
    # the reasoner ran exactly once; every caller shares that result
    assert computes.value - before == 1
    assert len(results) == THREADS
    assert all(result is results[0] for result in results)


def test_generation_bump_is_atomic_under_concurrent_inserts():
    abox = ABox()
    concept = AtomicConcept("C")
    per_thread = 300

    def work(index):
        for turn in range(per_thread):
            abox.add(ConceptAssertion(concept, Individual(f"t{index}_{turn}")))

    _run_threads(work)
    assert abox.generation == THREADS * per_thread
    assert len(abox) == THREADS * per_thread


def test_database_generation_loses_no_bump_under_concurrent_inserts():
    database = Database("hammer")
    tables = [database.create_table(f"t{index}", ["id"]) for index in range(THREADS)]
    per_thread = 300
    start = database.generation

    def work(index):
        for turn in range(per_thread):
            tables[index].insert((turn,))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: expose a torn bump
    try:
        _run_threads(work)
    finally:
        sys.setswitchinterval(interval)
    assert database.generation == start + THREADS * per_thread


def test_tbox_generation_is_atomic_under_concurrent_adds():
    tbox = TBox()
    per_thread = 100

    def work(index):
        for turn in range(per_thread):
            tbox.add(
                ConceptInclusion(
                    AtomicConcept(f"A{index}_{turn}"),
                    AtomicConcept(f"B{index}_{turn}"),
                )
            )

    _run_threads(work)
    assert len(tbox) == THREADS * per_thread


# -- the hammer: one system, mixed queries and updates ------------------------

_PERSON = AtomicConcept("Person")
_PROFESSOR = AtomicConcept("Professor")
_TEACHES = AtomicRole("teaches")

_HAMMER_QUERIES = [
    "q(x) :- Person(x)",
    "q(x) :- Professor(x)",
    "q(x, y) :- teaches(x, y)",
]


def _hammer_system():
    tbox = TBox(
        [
            ConceptInclusion(_PROFESSOR, _PERSON),
            ConceptInclusion(ExistentialRole(_TEACHES), _PROFESSOR),
        ],
        name="hammer",
    )
    abox = ABox([ConceptAssertion(_PROFESSOR, Individual("seed"))])
    return OBDASystem(tbox, abox=abox), tbox, abox


def test_hammer_mixed_queries_and_updates_match_serial_oracle():
    system, tbox, abox = _hammer_system()
    per_thread = 25

    def work(index):
        rng = random.Random(index)
        for turn in range(per_thread):
            roll = rng.random()
            if roll < 0.5:
                answers = system.certain_answers(
                    rng.choice(_HAMMER_QUERIES), check_consistency=False
                )
                assert isinstance(answers, (set, frozenset))
            elif roll < 0.9:
                if rng.random() < 0.5:
                    abox.add(
                        ConceptAssertion(
                            _PROFESSOR, Individual(f"t{index}_p{turn}")
                        )
                    )
                else:
                    abox.add(
                        RoleAssertion(
                            _TEACHES,
                            Individual(f"t{index}_s{turn}"),
                            Individual(f"t{index}_o{turn}"),
                        )
                    )
            else:
                tbox.add(
                    ConceptInclusion(
                        AtomicConcept(f"Specialist{index}_{turn}"), _PROFESSOR
                    )
                )

    _run_threads(work)

    # serial oracle over the final (quiesced) state: a fresh cache-free
    # system must agree with the hammered system on every pool query
    oracle = OBDASystem(
        TBox(list(tbox.axioms), name="oracle"),
        abox=abox.copy(),
        enable_caches=False,
    )
    for query in _HAMMER_QUERIES:
        hammered = system.certain_answers(query, check_consistency=False)
        expected = oracle.certain_answers(query, check_consistency=False)
        assert hammered == expected, f"post-soak divergence on {query!r}"


def test_hammer_presto_agrees_with_serial_oracle():
    system, tbox, abox = _hammer_system()

    def work(index):
        for turn in range(10):
            if turn % 3 == 0:
                abox.add(
                    ConceptAssertion(_PROFESSOR, Individual(f"t{index}_{turn}"))
                )
            else:
                system.certain_answers(
                    "q(x) :- Person(x)", method="presto", check_consistency=False
                )

    _run_threads(work)
    oracle = OBDASystem(
        TBox(list(tbox.axioms), name="oracle"),
        abox=abox.copy(),
        enable_caches=False,
    )
    assert system.certain_answers(
        "q(x) :- Person(x)", method="presto", check_consistency=False
    ) == oracle.certain_answers("q(x) :- Person(x)", check_consistency=False)
