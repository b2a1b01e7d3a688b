"""The benchmark's workloads: seeded inputs, set-up, and the timed operations.

Every workload follows one shape.  ``make_inputs(seed)`` generates all
inputs from the seed (ontology texts, source rows, query constants).
A run then repeats *epochs*: ``setup`` builds fresh state (timed, one
``setup_s`` sample per epoch), and ``ops`` yields the epoch's operations,
each executed by ``run_op`` as a single-threaded closed loop with one
client.  Operations go through an *executor*: the plain
:class:`DirectExecutor` here, or the traced replay of ``replay.py``.

Sizes are constructor arguments so the tests can drive tiny instances;
the defaults are the benchmark's sizes (see README.md for why).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.registry import make_reasoner
from repro.core.classifier import GraphClassifier
from repro.core.implication import entails_without_closure
from repro.corpus.generator import generate
from repro.corpus.profiles import FIGURE1_ORDER, PROFILES
from repro.dllite import AtomicConcept, AtomicRole, parse_tbox
from repro.dllite.abox import (
    ABox,
    AttributeAssertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from repro.dllite.axioms import ConceptInclusion
from repro.dllite.parser import serialize_tbox
from repro.obda import (
    Database,
    IriTemplate,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obs.metrics import global_metrics
from repro.perf import ClassificationCache, ucq_key
from repro.testkit.generators import FuzzProfile, direct_mapping_system, random_queries

from hostspeed import HostSpeed

METHODS = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")
#: latency group of answer-cache hits, pooled over the methods
HIT_GROUP = "answer-hit"
#: entries of each query-keyed cache of every system the workloads build;
#: the traced replay's cache mirrors take the same size
CACHE_SIZE = 256

#: set-ups per run: ``setup_s`` is their median, and single set-ups of
#: one seed differ by up to a factor of two on a busy host
MIN_SETUPS = 11


def derive_seed(*parts) -> int:
    """A stable 64-bit seed from the run seed and labels (``hash()`` of
    a string changes between processes)."""
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    return int(digest[:16], 16)


def answer_digest(answers) -> str:
    """sha1 of the sorted answer tuples: kept instead of the answers, so
    the checker holds a few bytes per operation."""
    text = "\x1f".join(sorted(repr(answer) for answer in answers))
    return hashlib.sha1(text.encode()).hexdigest()


# -- executors -----------------------------------------------------------------


class DirectExecutor:
    """Calls the library exactly as a user would; times each operation.

    At ``release`` it also sums the public counters of every system it
    saw (``cache_stats()``), which the traced run reports as per-layer
    counts.
    """

    def __init__(self):
        self.totals: Dict[str, int] = {}
        self._index_builds_at_start = self._index_builds()

    def backend_path(self) -> Optional[str]:
        return None

    def parse_tbox(self, text: str, name: str):
        return parse_tbox(text, name=name)

    def classify_system(self, system: OBDASystem) -> None:
        system.classification

    def warm_up(self, system: OBDASystem, query, method: str, check: bool) -> None:
        system.certain_answers(query, method=method, check_consistency=check)

    def answer(self, system: OBDASystem, query, method: str, check: bool):
        """``(answers, latency_s, answer_cache_hit)`` of one query."""
        hits = system.cache_stats()["answers"]["hits"]
        started = time.perf_counter()
        answers = system.certain_answers(
            query, method=method, check_consistency=check
        )
        latency = time.perf_counter() - started
        return answers, latency, system.cache_stats()["answers"]["hits"] > hits

    def measure(self, tbox) -> Tuple[int, float]:
        """``(subsumption count, latency_s)`` of one Figure-1 classification."""
        started = time.perf_counter()
        count = make_reasoner("quonto-graph").measure(tbox)
        return count, time.perf_counter() - started

    def release(self, system: OBDASystem) -> None:
        stats = system.cache_stats()
        for cache in ("answers", "rewriting"):
            self._add(f"{cache}.hits", stats[cache]["hits"])
            self._add(f"{cache}.misses", stats[cache]["misses"])
        if "backend" in stats:
            for key, value in stats["backend"].items():
                self._add(f"backend.{key}", value)
            system.sql_backend().close()

    @staticmethod
    def _index_builds() -> int:
        return global_metrics().counter("obda.evaluation.index_builds").value

    def index_builds(self) -> int:
        """Join-index builds since this executor was created."""
        return self._index_builds() - self._index_builds_at_start

    def _add(self, key: str, value: int) -> None:
        self.totals[key] = self.totals.get(key, 0) + value


# -- the record of one pass ------------------------------------------------------


class Recorder:
    """Samples, set-up times and output checks of one pass over a workload.

    Latencies and set-up times are kept at the reference host speed
    (``hostspeed.py``); ``speed`` holds the probes that scale them.
    """

    def __init__(self):
        self.speed = HostSpeed()
        self.samples: Dict[str, List[float]] = {}
        self.setups: List[float] = []
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        #: one ``(label, method, digest, hit)`` per call, in order (digest
        #: None when the call raised); the traced replay walks the same list
        self.calls: List[Tuple[str, str, Optional[str], bool]] = []
        self.mismatches: List[str] = []
        self.errors: List[str] = []

    def sample(self, group: str, latency_s: float) -> None:
        self.samples.setdefault(group, []).append(self.speed.scale(latency_s))

    def setup(self, seconds: float) -> None:
        self.setups.append(self.speed.scale(seconds))

    def busy_s(self) -> float:
        return sum(sum(values) for values in self.samples.values())

    def fail(self, label: str, method: str, error: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            frame = traceback.extract_tb(error.__traceback__)[-1]
            where = f"{Path(frame.filename).name}:{frame.lineno}"
            self.errors.append(f"op {self.ops} {label} [{method}]: {error!r} at {where}")


def _shuffled(items: Sequence, rng: random.Random) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def ask_all_methods(systems, query, label, rng, executor, recorder, check) -> None:
    """One operation: *query* asked of every method's system, in seeded
    order; per-method answer digests must agree."""
    digests: Dict[str, str] = {}
    for method in _shuffled(METHODS, rng):
        recorder.attempted += 1
        recorder.speed.tick()
        try:
            answers, latency, hit = executor.answer(
                systems[method], query, method, check
            )
        except Exception as error:  # a failing call is counted, not fatal
            recorder.fail(label, method, error)
            recorder.calls.append((label, method, None, False))
            continue
        recorder.sample(HIT_GROUP if hit else method, latency)
        digests[method] = answer_digest(answers)
        recorder.calls.append((label, method, digests[method], hit))
    if len(set(digests.values())) > 1:
        by_digest: Dict[str, List[str]] = {}
        for method, digest in sorted(digests.items()):
            by_digest.setdefault(digest, []).append(method)
        groups = " vs ".join(
            f"{'/'.join(methods)}={digest[:10]}" for digest, methods in by_digest.items()
        )
        recorder.mismatches.append(f"op {recorder.ops} {label}: {groups}")


# -- fig1-classify ---------------------------------------------------------------


class Fig1Classify:
    """Figure 1, QuOnto column: classify each corpus profile.

    The run seed derives each profile's generator seed.  Set-up parses
    the 11 serialized profiles; after one warm-up classification each,
    every operation is one ``make_reasoner("quonto-graph").measure(tbox)``,
    in shuffled round-robin order over the profiles.  ``inputs["counts"]``
    keeps the first subsumption count seen per profile; every later one,
    in either pass of a traced run, must equal it.
    """

    name = "fig1-classify"

    def __init__(self, scale: float = 0.5, cycles_per_epoch: int = 20,
                 profiles: Sequence[str] = tuple(FIGURE1_ORDER), pairs: int = 10):
        self.scale = scale
        self.cycles_per_epoch = cycles_per_epoch
        self.profiles = list(profiles)
        self.pairs = pairs

    def groups(self) -> List[str]:
        return list(self.profiles)

    def make_inputs(self, seed: int) -> dict:
        texts = {}
        for name in self.profiles:
            profile = dataclasses.replace(
                PROFILES[name], seed=derive_seed(seed, "profile", name) % 2**31
            )
            texts[name] = serialize_tbox(generate(profile, scale=self.scale))
        return {"seed": seed, "texts": texts, "counts": {}}

    def setup(self, inputs: dict, epoch: int, executor) -> dict:
        return {
            name: executor.parse_tbox(text, name)
            for name, text in inputs["texts"].items()
        }

    def ops(self, inputs: dict, epoch: int) -> Iterator[str]:
        rng = random.Random(derive_seed(inputs["seed"], "fig1-order", epoch))
        for _ in range(self.cycles_per_epoch):
            yield from _shuffled(self.profiles, rng)

    def warm_up(self, state: dict, executor) -> None:
        for tbox in state.values():
            executor.measure(tbox)

    def run_op(self, inputs, state, name, executor, recorder) -> None:
        recorder.attempted += 1
        recorder.speed.tick()
        try:
            count, latency = executor.measure(state[name])
        except Exception as error:  # a failing call is counted, not fatal
            recorder.fail(name, "quonto-graph", error)
            return
        recorder.sample(name, latency)
        recorder.calls.append((name, "quonto-graph", str(count), False))
        expected = inputs["counts"].setdefault(name, count)
        if count != expected:
            recorder.mismatches.append(
                f"op {recorder.ops} {name}: subsumption count {count} != {expected}"
            )

    def teardown(self, state, executor) -> None:
        pass

    def final_checks(self, inputs: dict, recorder: Recorder) -> None:
        """Seeded subsumption pairs must agree with ``entails_without_closure``."""
        for name, text in inputs["texts"].items():
            tbox = parse_tbox(text, name=name)
            classification = GraphClassifier().classify(tbox)
            rng = random.Random(derive_seed(inputs["seed"], "fig1-pairs", name))
            concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
            pairs = []
            # Half the pairs come from the subsumers: the first concepts, in
            # seeded order, that have a named subsumer besides themselves
            # (asking every concept's subsumers takes seconds on FMA 2.0).
            for lower in _shuffled(concepts, rng):
                if len(pairs) == self.pairs // 2:
                    break
                uppers = sorted(
                    (s for s in classification.subsumers(lower, named_only=True)
                     if isinstance(s, AtomicConcept) and s != lower),
                    key=lambda c: c.name,
                )
                if uppers:
                    pairs.append((lower, rng.choice(uppers)))
            while len(pairs) < self.pairs:
                pairs.append((rng.choice(concepts), rng.choice(concepts)))
            for lower, upper in pairs:
                expected = classification.subsumes(upper, lower)
                found = entails_without_closure(tbox, ConceptInclusion(lower, upper))
                if expected != found:
                    recorder.mismatches.append(
                        f"{name}: {lower} isa {upper}: classification says "
                        f"{expected}, entails_without_closure says {found}"
                    )


# -- corpus-rewrite --------------------------------------------------------------


def covering_abox(rng: random.Random, tbox, individuals: int, extra: int) -> ABox:
    """A random ABox over *individuals* names: one assertion for every
    predicate of *tbox*'s signature, then *extra* random ones.

    Covering the signature gives every predicate a mapped table, so the
    unfolded SQL of a query does not depend on which predicates the seed
    happened to populate.
    """
    names = [Individual(f"a{i}") for i in range(individuals)]
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    roles = sorted(tbox.signature.roles, key=lambda r: r.name)
    attributes = sorted(tbox.signature.attributes, key=lambda a: a.name)

    def concept(predicate):
        return ConceptAssertion(predicate, rng.choice(names))

    def role(predicate):
        return RoleAssertion(predicate, rng.choice(names), rng.choice(names))

    def attribute(predicate):
        return AttributeAssertion(predicate, rng.choice(names), rng.randint(0, 3))

    abox = ABox()
    for predicates, make in ((concepts, concept), (roles, role), (attributes, attribute)):
        for predicate in predicates:
            abox.add(make(predicate))
    kinds = [(concepts, concept, 0.5), (roles, role, 0.35), (attributes, attribute, 0.15)]
    kinds = [kind for kind in kinds if kind[0]]
    for _ in range(extra):
        predicates, make, _ = rng.choices(kinds, weights=[k[2] for k in kinds])[0]
        abox.add(make(rng.choice(predicates)))
    return abox


class CorpusRewrite:
    """A fixed pool of one- and two-atom CQs over two corpus TBoxes.

    Each query is the first one a freshly built system answers, so every
    operation pays rewriting, unfolding and the data-side work of that
    query alone (extent pulls, constraint checks, sqlite table loads),
    whatever ran before it.  The data is ~60 individuals, so the
    executors idle.  The TBoxes are the published profiles and the pool
    comes from a fixed seed: rewriting cost varies by orders of magnitude
    between random TBoxes and queries, so the run seed varies only the
    rows and the order.  The pool holds 205 queries (a count ending in 5
    puts the nearest-rank median and p90 mid-way into one query's
    samples), enough that neighbouring queries differ little in cost.
    """

    name = "corpus-rewrite"

    #: generator seed of the query pool
    POOL_SEED = 2013

    def __init__(self, profiles=(("Mouse", 0.1, 125), ("Transportation", 0.2, 80)),
                 individuals: int = 60, extra_assertions: int = 200,
                 max_atoms: int = 2):
        self.profiles = list(profiles)
        self.individuals = individuals
        self.extra_assertions = extra_assertions
        self.max_atoms = max_atoms

    def groups(self) -> List[str]:
        return list(METHODS)

    def make_inputs(self, seed: int) -> dict:
        sources = {}
        for name, scale, queries in self.profiles:
            tbox = generate(PROFILES[name], scale=scale)
            rng = random.Random(derive_seed(seed, "abox", name))
            abox = covering_abox(rng, tbox, self.individuals, self.extra_assertions)
            sources[name] = (serialize_tbox(tbox), abox, self._pool(tbox, name, queries))
        return {"seed": seed, "sources": sources}

    def _pool(self, tbox, name: str, count: int) -> List:
        """*count* + 1 distinct connected CQs of at most ``max_atoms``
        atoms; the spare one is the warm-up query.

        Queries that repeat an atom are skipped: Presto loses answers on
        them (README.md, "Findings"), and a run must not fail its checks.
        """
        rng = random.Random(derive_seed(self.POOL_SEED, name))
        sizes = FuzzProfile(max_queries=4, max_query_atoms=self.max_atoms)
        seen, queries = set(), []
        while len(queries) <= count:
            for query in random_queries(rng, tbox, sizes):
                atoms = [str(atom) for cq in query for atom in cq.atoms]
                key = ucq_key(query)
                if (key not in seen and len(set(atoms)) == len(atoms)
                        and len(queries) <= count):
                    seen.add(key)
                    queries.append(query)
        return queries

    def setup(self, inputs: dict, epoch: int, executor) -> dict:
        """Parse, lower the ABox once per method, classify, and warm up one
        system per method with the pool's spare query."""
        cache = ClassificationCache()
        state = {}
        for name, (text, abox, pool) in inputs["sources"].items():
            tbox = executor.parse_tbox(text, name)
            lowered = {method: direct_mapping_system(tbox, abox) for method in METHODS}
            warm = {
                method: self._system(tbox, lowered[method], cache,
                                     executor.backend_path()
                                     if method == "perfectref-sqlite" else None)
                for method in METHODS
            }
            for method in METHODS:
                executor.classify_system(warm[method])
                executor.warm_up(warm[method], pool[-1], method, False)
            state[name] = (tbox, lowered, cache, warm)
        return state

    @staticmethod
    def _system(tbox, lowered, cache, backend_path=None) -> OBDASystem:
        return OBDASystem(
            tbox,
            mappings=lowered.mappings,
            database=lowered.database,
            cache_size=CACHE_SIZE,
            classification_cache=cache,
            backend_path=backend_path,
        )

    def ops(self, inputs: dict, epoch: int) -> Iterator[tuple]:
        rng = random.Random(derive_seed(inputs["seed"], "corpus-order", epoch))
        queries = [(name, query) for name, (_, _, pool) in inputs["sources"].items()
                   for query in pool[:-1]]
        for name, query in _shuffled(queries, rng):
            yield name, query, rng.random()

    def run_op(self, inputs, state, op, executor, recorder) -> None:
        name, query, order_seed = op
        tbox, lowered, cache, _ = state[name]
        systems = {method: self._system(tbox, lowered[method], cache)
                   for method in METHODS}
        try:
            ask_all_methods(
                systems, query, f"{name}: {str(query).strip()}",
                random.Random(order_seed), executor, recorder, check=False,
            )
        finally:
            for system in systems.values():
                executor.release(system)

    def teardown(self, state, executor) -> None:
        for _, _, _, warm in state.values():
            for system in warm.values():
                executor.release(system)

    def final_checks(self, inputs, recorder) -> None:
        pass


# -- the university instance -------------------------------------------------------

UNIVERSITY_TBOX = """
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

#: source tables: name -> columns
UNIVERSITY_TABLES = {
    "person": ("id", "kind", "dept"),
    "course": ("code", "dept"),
    "teaching": ("staff", "course"),
    "enrolment": ("student", "course"),
    "advising": ("prof", "student"),
}


def university_rows(rng: random.Random, persons: int) -> dict:
    """Seeded source rows with fixed proportions: 10% professors, 10%
    lecturers, 15% graduate students, 65% students; one course per 5
    persons; ``max(20, persons // 50)`` departments filled round-robin;
    every teacher teaches, and every student takes, one or two courses.

    Only who is what, and who teaches or takes which course, depends on
    the seed; the table sizes and per-kind counts do not, so runs with
    different seeds do the same amount of work.
    """
    departments = max(20, persons // 50)
    courses = max(20, persons // 5)
    kinds = (["prof"] * (persons // 10) + ["lect"] * (persons // 10)
             + ["grad"] * (persons * 15 // 100))
    kinds += ["student"] * (persons - len(kinds))
    rng.shuffle(kinds)
    people = [(person, kind, person % departments) for person, kind in enumerate(kinds)]
    by_kind = {kind: [p for p, k, _ in people if k == kind]
               for kind in ("prof", "lect", "grad", "student")}
    teachers = sorted(by_kind["prof"] + by_kind["lect"])
    students = sorted(by_kind["student"] + by_kind["grad"])

    def links(members):
        return [(member, course) for index, member in enumerate(members)
                for course in rng.sample(range(courses), 1 + index % 2)]

    return {
        "tables": {
            "person": people,
            "course": [(course, course % departments) for course in range(courses)],
            "teaching": links(teachers),
            "enrolment": links(students),
            "advising": [(rng.choice(by_kind["prof"]), g) for g in by_kind["grad"]],
        },
        "pools": {
            "departments": list(range(departments)),
            "courses": list(range(courses)),
            "teachers": teachers,
            "professors": sorted(by_kind["prof"]),
            "students": students,
        },
    }


def university_mappings() -> MappingCollection:
    person = IriTemplate("p/{id}")
    assertions = [
        MappingAssertion(
            f"SELECT id FROM person WHERE kind = '{kind}'",
            [TargetAtom(AtomicConcept(concept), (person,))],
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
    return MappingCollection(assertions)


class _University:
    """Shared set-up of the two university workloads: one system per
    method, each over its own copy of the seeded source rows."""

    #: set-up queries: constant-free, together they touch every source table
    WARM_UP: Tuple[str, ...] = ("q(x) :- Person(x)", "q(x) :- Course(x)")

    def __init__(self, persons: int):
        self.persons = persons

    def groups(self) -> List[str]:
        return list(METHODS)

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(derive_seed(seed, "university"))
        return {"seed": seed, **university_rows(rng, self.persons)}

    def setup(self, inputs: dict, epoch: int, executor) -> dict:
        tbox = executor.parse_tbox(UNIVERSITY_TBOX, "university")
        mappings = university_mappings()
        cache = ClassificationCache()
        systems = {}
        for method in METHODS:
            database = Database("university")
            for table, columns in UNIVERSITY_TABLES.items():
                database.create_table(table, columns, inputs["tables"][table])
            systems[method] = OBDASystem(
                tbox,
                mappings=mappings,
                database=database,
                cache_size=CACHE_SIZE,
                classification_cache=cache,
                backend_path=executor.backend_path()
                if method == "perfectref-sqlite" else None,
            )
        for method in METHODS:
            executor.classify_system(systems[method])
        for query in self.WARM_UP:
            for method in METHODS:
                executor.warm_up(systems[method], query, method, True)
        return systems

    def teardown(self, state, executor) -> None:
        for system in state.values():
            executor.release(system)

    def final_checks(self, inputs, recorder) -> None:
        pass


class UnivPoint(_University):
    """Selective point queries: 5 templates, each with distinct seeded
    constants per epoch, so no query-keyed cache ever hits."""

    name = "univ-point"

    TEMPLATES = (
        ("q(x) :- Teacher(x), memberOf(x, 'd/{k}')", "departments"),
        ("q(x) :- enrolledIn(x, 'c/{k}')", "courses"),
        ("q(y) :- teaches('p/{k}', y)", "teachers"),
        ("q(x) :- Student(x), memberOf(x, 'd/{k}')", "departments"),
        ("q(x) :- advises('p/{k}', x)", "professors"),
    )

    def __init__(self, persons: int = 300, constants: int = 20):
        super().__init__(persons)
        self.constants = constants

    def ops(self, inputs: dict, epoch: int) -> Iterator[tuple]:
        rng = random.Random(derive_seed(inputs["seed"], "point", epoch))
        queries = []
        for template, pool in self.TEMPLATES:
            for constant in rng.sample(inputs["pools"][pool], self.constants):
                queries.append(template.format(k=constant))
        for query in _shuffled(queries, rng):
            yield query, rng.random()

    def run_op(self, inputs, state, op, executor, recorder) -> None:
        query, order_seed = op
        ask_all_methods(
            state, query, query, random.Random(order_seed), executor, recorder,
            check=True,
        )


class UnivMix(_University):
    """Dashboard refresh under writes: each round inserts one enrolment
    and one teaching row, then two readers ask the same 5 join queries;
    the first reader misses the answer cache, the second hits it.

    The shapes keep one order, so the consistency re-check each write
    triggers always lands on the first shape's samples; shuffled, it
    would move a different block of samples each run.
    """

    name = "univ-mix"

    SHAPES = (
        "q(x, c) :- Teacher(x), teaches(x, c), Course(c)",
        "q(x) :- Student(x), enrolledIn(x, c), teaches(t, c)",
        "q(x, t) :- enrolledIn(x, c), teaches(t, c), memberOf(t, d), memberOf(x, d)",
        "q(s) :- advises(p, s), enrolledIn(s, c), teaches(p, c), Professor(p)",
        "q(x, d) :- Student(x), enrolledIn(x, c), offeredBy(c, d), memberOf(x, d), "
        "Person(x)",
    )

    def __init__(self, persons: int = 600, rounds_per_epoch: int = 10,
                 readers: int = 2):
        super().__init__(persons)
        self.rounds_per_epoch = rounds_per_epoch
        self.readers = readers

    #: warming up with the shapes fills the rewriting caches
    WARM_UP = _University.WARM_UP + SHAPES

    def groups(self) -> List[str]:
        return list(METHODS) + [HIT_GROUP]

    def ops(self, inputs: dict, epoch: int) -> Iterator[tuple]:
        rng = random.Random(derive_seed(inputs["seed"], "mix", epoch))
        pools = inputs["pools"]
        courses = len(pools["courses"])
        for round_ in range(self.rounds_per_epoch):
            writes = (
                ("enrolment", (rng.choice(pools["students"]), rng.randrange(courses))),
                ("teaching", (rng.choice(pools["teachers"]), rng.randrange(courses))),
            )
            yield round_, writes, rng.random()

    def run_op(self, inputs, state, op, executor, recorder) -> None:
        round_, writes, order_seed = op
        for system in state.values():
            for table, row in writes:
                system.database[table].insert(row)
        rng = random.Random(order_seed)
        for reader in range(self.readers):
            for query in self.SHAPES:
                label = f"round {round_} reader {reader + 1}: {query}"
                ask_all_methods(state, query, label, rng, executor, recorder, True)


WORKLOADS = {
    workload.name: workload
    for workload in (Fig1Classify, CorpusRewrite, UnivPoint, UnivMix)
}
