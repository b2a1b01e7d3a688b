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

from repro.core import GraphClassifier
from repro.dllite.abox import ABox, ConceptAssertion, Individual, RoleAssertion
from repro.dllite.axioms import ConceptInclusion
from repro.dllite.syntax import AtomicConcept, AtomicRole, ExistentialRole
from repro.dllite.tbox import TBox
from repro.obda.sql.database import Database
from repro.obda.system import OBDASystem
from repro.obs.metrics import global_metrics
from repro.perf.cache import CacheStats, ClassificationCache, LRUCache
from repro.runtime.concurrency import SingleFlight
from repro.testkit import naive_sql_answers
from tests.test_perf_extents import _assert_table_indexes, _hold_table_indexes

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
    computed = 0
    release = threading.Event()
    results = []
    results_lock = threading.Lock()

    def compute():
        nonlocal computed
        with results_lock:
            computed += 1
        release.wait(10.0)
        return "value"

    def work(_index):
        barrier.wait(10.0)
        result, leader = flights.do("key", compute)
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
    while computed == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)
    release.set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()

    assert computed >= 1
    assert all(result == "value" for result, _ in results)
    leaders = [leader for _, leader in results if leader]
    assert len(leaders) == computed  # one leader per actual run


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


def test_classifying_while_axioms_are_added_keeps_the_digraph_whole():
    """``TBox.add`` appends an axiom before it registers the axiom's
    predicates; a build that sees the axiom but not the predicates interns
    them on first sight, so every classification stays self-consistent."""
    person, professor = AtomicConcept("Person"), AtomicConcept("Professor")
    tbox = TBox([ConceptInclusion(professor, person)], name="growing")
    per_writer = 150
    writers = THREADS // 2
    done = threading.Event()
    finished = []

    def work(index):
        if index < writers:
            for turn in range(per_writer):
                role = AtomicRole(f"r{index}_{turn}")
                tbox.add(ConceptInclusion(ExistentialRole(role.inverse), person))
                tbox.add(ConceptInclusion(AtomicConcept(f"c{index}_{turn}"), professor))
            finished.append(index)
            if len(finished) == writers:
                done.set()
            return
        while not done.is_set():
            classification = GraphClassifier().classify(tbox)
            graph = classification.graph
            assert len(graph.successors) == len(graph.sorts()) == len(graph.nodes)
            assert all(graph.index[node] == i for i, node in enumerate(graph.nodes))
            assert all(
                target < len(graph.nodes) for targets in graph.successors for target in targets
            )
            for node in graph.nodes:
                if isinstance(node, AtomicConcept) and node.name.startswith("c"):
                    assert classification.subsumes(person, node)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often: catch an axiom without its predicates
    try:
        _run_threads(work)
    finally:
        sys.setswitchinterval(interval)
    assert GraphClassifier().classify(tbox).graph.node_count == 2 + writers * per_writer * 5


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


# -- a cache fill racing an axiom add ---------------------------------------------

_PERSON_QUERY = "q(x) :- Person(x)"
_TUTOR = AtomicConcept("Tutor")


class _PauseAfterFirstCall:
    """A pipeline phase whose first call computes, then waits to be resumed."""

    def __init__(self, phase):
        self._phase = phase
        self.computed = threading.Event()
        self.resume = threading.Event()

    def __call__(self, *args, **kwargs):
        result = self._phase(*args, **kwargs)
        if not self.computed.is_set():
            self.computed.set()
            self.resume.wait(10.0)
        return result


def _answer_across_a_paused_fill(monkeypatch, system, phase, method):
    """Answer the Person query on a worker whose *phase* call pauses after
    computing.  Meanwhile add ``Tutor isa Person`` and answer another
    query, which clears the caches; then let the worker store what it
    computed before the add, and answer the Person query again."""
    import repro.obda.system as system_module

    paused = _PauseAfterFirstCall(getattr(system_module, phase))
    monkeypatch.setattr(system_module, phase, paused)
    options = {"method": method, "check_consistency": False}
    worker = threading.Thread(
        target=system.certain_answers, args=(_PERSON_QUERY,), kwargs=options
    )
    worker.start()
    assert paused.computed.wait(10.0), f"{phase} never ran"
    system.tbox.add(ConceptInclusion(_TUTOR, _PERSON))
    system.certain_answers("q(x) :- Professor(x)", **options)
    paused.resume.set()
    worker.join(10.0)
    assert not worker.is_alive()
    return system.certain_answers(_PERSON_QUERY, **options)


def test_rewriting_from_before_an_axiom_add_is_not_served_after_it(monkeypatch):
    tbox = TBox([ConceptInclusion(_PROFESSOR, _PERSON)], name="tutors")
    abox = ABox(
        [
            ConceptAssertion(_PROFESSOR, Individual("p")),
            ConceptAssertion(_TUTOR, Individual("t")),
        ]
    )
    system = OBDASystem(tbox, abox=abox)
    answers = _answer_across_a_paused_fill(
        monkeypatch, system, "perfect_ref", "perfectref"
    )
    assert answers == {(Individual("p"),), (Individual("t"),)}


@pytest.mark.parametrize(
    "method",
    ["perfectref-sql", "perfectref-sqlite"],
    ids=["planned-sql", "sqlite"],
)
def test_unfolding_from_before_an_axiom_add_is_not_served_after_it(
    monkeypatch, method
):
    # The two SQL executors share one unfolding-cache entry and key.
    from repro.obda.mapping import (
        IriTemplate,
        MappingAssertion,
        MappingCollection,
        TargetAtom,
    )

    database = Database("tutors")
    database.create_table("staff", ["id", "kind"], [(1, "prof"), (2, "tutor")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                f"SELECT id FROM staff WHERE kind = '{kind}'",
                [TargetAtom(concept, (IriTemplate("p/{id}"),))],
            )
            for kind, concept in (("prof", _PROFESSOR), ("tutor", _TUTOR))
        ]
    )
    tbox = TBox([ConceptInclusion(_PROFESSOR, _PERSON)], name="tutors")
    system = OBDASystem(tbox, mappings, database)
    answers = _answer_across_a_paused_fill(monkeypatch, system, "unfold", method)
    assert answers == {(Individual("p/1"),), (Individual("p/2"),)}


# -- mapped mode: writes beside consistency-checked reads ------------------------

_UNIVERSITY_TBOX = """
role teaches, enrolledIn, memberOf, advises, offeredBy
Professor isa Teacher
Lecturer isa Teacher
Teacher isa Person
Student isa Person
GradStudent isa Student
Teacher isa exists teaches
exists teaches isa Teacher
exists teaches^- isa Course
exists enrolledIn isa Student
exists enrolledIn^- isa Course
exists memberOf isa Person
exists memberOf^- isa Department
exists advises isa Professor
exists advises^- isa GradStudent
exists offeredBy isa Course
exists offeredBy^- isa Department
Teacher isa not Student
"""

#: the join shapes of the benchmark's write workload (univ-mix)
_UNIVERSITY_SHAPES = (
    "q(x, c) :- Teacher(x), teaches(x, c), Course(c)",
    "q(x) :- Student(x), enrolledIn(x, c), teaches(t, c)",
    "q(x, t) :- enrolledIn(x, c), teaches(t, c), memberOf(t, d), memberOf(x, d)",
    "q(s) :- advises(p, s), enrolledIn(s, c), teaches(p, c), Professor(p)",
    "q(x, d) :- Student(x), enrolledIn(x, c), offeredBy(c, d), memberOf(x, d), "
    "Person(x)",
)

_METHODS = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")


def _university(persons=60, courses=12, departments=4):
    """A seeded university with the benchmark's schema and mappings:
    every teacher teaches and every student takes one course."""
    from repro.dllite.parser import parse_tbox
    from repro.obda.mapping import (
        IriTemplate,
        MappingAssertion,
        MappingCollection,
        TargetAtom,
    )

    rng = random.Random(2013)
    kinds = ["prof", "lect", "grad"] * (persons // 6) + ["student"] * (persons // 2)
    rng.shuffle(kinds)
    people = [(p, kind, p % departments) for p, kind in enumerate(kinds)]
    teachers = [p for p, kind, _ in people if kind in ("prof", "lect")]
    students = [p for p, kind, _ in people if kind in ("grad", "student")]
    database = Database("university")
    database.create_table("person", ["id", "kind", "dept"], people)
    database.create_table(
        "course", ["code", "dept"], [(c, c % departments) for c in range(courses)]
    )
    database.create_table(
        "teaching", ["staff", "course"], [(t, rng.randrange(courses)) for t in teachers]
    )
    database.create_table(
        "enrolment", ["student", "course"], [(s, rng.randrange(courses)) for s in students]
    )
    database.create_table(
        "advising",
        ["prof", "student"],
        [
            (rng.choice([p for p, kind, _ in people if kind == "prof"]), g)
            for g, kind, _ in people
            if kind == "grad"
        ],
    )
    assertions = [
        MappingAssertion(
            f"SELECT id FROM person WHERE kind = '{kind}'",
            [TargetAtom(AtomicConcept(concept), (IriTemplate("p/{id}"),))],
        )
        for kind, concept in (("prof", "Professor"), ("lect", "Lecturer"),
                              ("student", "Student"), ("grad", "GradStudent"))
    ]
    for sql, role, subject, object_ in (
        ("SELECT id, dept FROM person", "memberOf", "p/{id}", "d/{dept}"),
        ("SELECT code, dept FROM course", "offeredBy", "c/{code}", "d/{dept}"),
        ("SELECT staff, course FROM teaching", "teaches", "p/{staff}", "c/{course}"),
        ("SELECT student, course FROM enrolment", "enrolledIn", "p/{student}",
         "c/{course}"),
        ("SELECT prof, student FROM advising", "advises", "p/{prof}", "p/{student}"),
    ):
        assertions.append(MappingAssertion(
            sql,
            [TargetAtom(AtomicRole(role), (IriTemplate(subject), IriTemplate(object_)))],
        ))
    tbox = parse_tbox(_UNIVERSITY_TBOX, name="university")
    mappings = MappingCollection(assertions)
    return OBDASystem(tbox, mappings, database), teachers, students, courses


def test_racing_extensions_of_one_entry_serve_each_round_exactly():
    """Readers race to extend the same entries after each fenced round
    of appends: whichever extension installs, every answer equals the
    cache-free twin's for that round, so none is lost or stale."""
    system, teachers, students, courses = _university()
    database = system.database
    methods = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")
    twin = OBDASystem(system.tbox, system.mappings, database, enable_caches=False)
    for method in methods:
        for query in _UNIVERSITY_SHAPES:
            system.certain_answers(query, method=method)
    readers, rounds = 4, 5
    fence = threading.Barrier(readers + 1, timeout=30.0)
    answered = []  # (round, query, method, answers)
    expected = {}  # (round, query, method) -> answers

    def work(index):
        rng = random.Random(index)
        for round_ in range(rounds):
            if index == readers:  # the writer
                database["enrolment"].insert((rng.choice(students), rng.randrange(courses)))
                database["teaching"].insert((rng.choice(teachers), rng.randrange(courses)))
                fence.wait()
                fence.wait()
                for query in _UNIVERSITY_SHAPES:
                    for method in methods:
                        expected[round_, query, method] = (
                            naive_sql_answers(twin, query)
                            if method == "perfectref-sql"
                            else twin.certain_answers(query, method=method)
                        )
                continue
            fence.wait()
            shapes = list(_UNIVERSITY_SHAPES)
            rng.shuffle(shapes)
            for query in shapes:
                for method in methods:
                    answers = system.certain_answers(query, method=method)
                    answered.append((round_, query, method, answers))
            fence.wait()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(work, count=readers + 1)
    finally:
        sys.setswitchinterval(interval)
        for each in (system, twin):
            each.sql_backend().close()
    assert len(answered) == readers * rounds * len(_UNIVERSITY_SHAPES) * len(methods)
    for round_, query, method, answers in answered:
        assert answers == expected[round_, query, method], (round_, method, query)
    assert system.cache_stats()["answers"]["hits"] > 0


_POINT_TEMPLATES = (
    "q(x) :- Teacher(x), memberOf(x, 'd/{k}')",
    "q(x) :- Student(x), memberOf(x, 'd/{k}')",
    "q(y) :- teaches('p/{k}', y)",
)


def test_racing_template_hits_share_one_derived_provider():
    """Readers race through point queries of a few templates, each asked
    with other constants, between fenced rounds of appends: every
    rewriting but a template's first is bound from the cached one, every
    presto call reads the system's one derived-extent provider, and each
    answer equals the cache-free twin's for that round."""
    system, teachers, students, courses = _university()
    database = system.database
    methods = ("perfectref", "presto")
    twin = OBDASystem(system.tbox, system.mappings, database, enable_caches=False)
    queries = [template.format(k=k) for template in _POINT_TEMPLATES for k in range(4)]
    system.certain_answers(queries[0], method="presto")
    provider = system._presto_extents
    readers, rounds = 4, 3
    fence = threading.Barrier(readers + 1, timeout=30.0)
    answered = []  # (round, query, method, answers)
    expected = {}  # (round, query, method) -> answers

    def work(index):
        rng = random.Random(index)
        for round_ in range(rounds):
            if index == readers:  # the writer
                database["teaching"].insert((rng.choice(teachers), rng.randrange(courses)))
                fence.wait()
                fence.wait()
                for query in queries:
                    for method in methods:
                        expected[round_, query, method] = twin.certain_answers(
                            query, method=method
                        )
                continue
            fence.wait()
            mine = list(queries)
            rng.shuffle(mine)
            for query in mine:
                for method in methods:
                    answers = system.certain_answers(query, method=method)
                    answered.append((round_, query, method, answers))
            fence.wait()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(work, count=readers + 1)
    finally:
        sys.setswitchinterval(interval)
    assert len(answered) == readers * rounds * len(queries) * len(methods)
    for round_, query, method, answers in answered:
        assert answers == expected[round_, query, method], (round_, method, query)
    assert system._presto_extents is provider
    # racing first rewrites of a template may each miss, never more
    assert system.cache_stats()["rewriting"]["misses"] <= readers * len(_POINT_TEMPLATES) * 2


def test_hammer_mapped_writes_beside_checked_reads_match_cache_free_oracle():
    system, teachers, students, courses = _university()
    database = system.database
    for method in _METHODS:  # warm every cache the readers will race on
        for query in _UNIVERSITY_SHAPES:
            system.certain_answers(query, method=method)
    held = []  # (table index, its buckets when returned)

    def work(index):
        rng = random.Random(index)
        if index < 2:
            for _ in range(30):
                database["enrolment"].insert((rng.choice(students), rng.randrange(courses)))
                database["teaching"].insert((rng.choice(teachers), rng.randrange(courses)))
        else:
            for turn in range(8):
                system.certain_answers(
                    rng.choice(_UNIVERSITY_SHAPES),
                    method=_METHODS[(index + turn) % len(_METHODS)],
                    check_consistency=True,
                )
                _hold_table_indexes(database, held)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(work, count=6)
    finally:
        sys.setswitchinterval(interval)

    # perfectref-sql against the naive evaluator: a cache-free twin would
    # probe the same table indexes
    oracle = OBDASystem(
        system.tbox, system.mappings, database, enable_caches=False
    )
    try:
        for query in _UNIVERSITY_SHAPES:
            for method in _METHODS:
                expected = (
                    naive_sql_answers(oracle, query)
                    if method == "perfectref-sql"
                    else oracle.certain_answers(query, method=method)
                )
                assert system.certain_answers(query, method=method) == (
                    expected
                ), f"post-hammer divergence: {method} on {query!r}"
    finally:
        for twin in (system, oracle):
            if twin._sql_backend is not None:
                twin._sql_backend.close()
    assert held
    _assert_table_indexes(database, held)
