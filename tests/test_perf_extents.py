"""Cross-query extent caching, indexed joins, and cache non-poisoning."""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.dllite import parse_tbox
from repro.dllite.abox import ABox, Individual, RoleAssertion
from repro.dllite.parser import parse_axiom
from repro.dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from repro.errors import TimeoutExceeded
from repro.obda import mapping
from repro.obda.constraints import ExtensionalConstraints
from repro.obda.cq_parser import parse_query
from repro.obda.evaluation import ABoxExtents, DatalogExtents, MappingExtents
from repro.obda.mapping import (
    IriTemplate,
    MappingAssertion,
    MappingCollection,
    TargetAtom,
    ValueColumn,
)
from repro.obda.queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.obda.rewriting import unfolding
from repro.obda.rewriting.presto import DatalogRewriting, DatalogRule
from repro.obda.sql import algebra
from repro.obda.sql.database import Database
from repro.obda.sql.stats import join_key
from repro.obda.system import OBDASystem
from repro.obs.metrics import global_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.perf import ClassificationCache
from repro.perf.canonical import template_key
from repro.runtime.budget import Budget
from repro.runtime.fallback import FallbackChain
from repro.runtime.retry import RetryPolicy
from repro.testkit import naive_sql_answers
from repro.testkit.generators import LITERAL_CELLS, direct_mapping_system

TBOX_TEXT = """
role teaches
Professor isa Teacher
Teacher isa Person
Teacher isa exists teaches
exists teaches isa Teacher
exists teaches^- isa Course
"""


def _campus_system(tbox_text=TBOX_TEXT):
    from repro.dllite.abox import ConceptAssertion
    from repro.dllite.syntax import AtomicConcept

    tbox = parse_tbox(tbox_text)
    abox = ABox()
    for name in ("ada", "bob"):
        abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual(name)))
    abox.add(
        RoleAssertion(AtomicRole("teaches"), Individual("ada"), Individual("logic"))
    )
    return direct_mapping_system(tbox, abox)


def test_workload_pulls_each_predicate_extent_once():
    """S1 regression: two queries, one source pull per predicate."""
    system = _campus_system()
    tracer = Tracer("workload")
    with use_tracer(tracer):
        first = system.certain_answers(
            "q(x) :- Teacher(x)", check_consistency=False
        )
        second = system.certain_answers(
            "q(x) :- Teacher(x), teaches(x, y)", check_consistency=False
        )
    assert first and second
    pulled = [
        span.attributes["predicate"] for span in tracer.spans if span.name == "extent-pull"
    ]
    assert pulled and len(pulled) == len(set(pulled)), (
        f"duplicate source pulls across the workload: {sorted(pulled)}"
    )
    assert system.cache_stats()["extents"]["source_pulls"] == len(pulled)


def test_database_mutation_invalidates_extents_and_answers():
    system = _campus_system()
    query = "q(x) :- Teacher(x)"
    before = system.certain_answers(query, check_consistency=False)
    system.database["t_Professor"].insert(("eve",))
    after = system.certain_answers(query, check_consistency=False)
    assert len(after) == len(before) + 1
    assert (Individual("eve"),) in after


def test_indexes_are_reused_across_queries():
    system = _campus_system()
    provider = system.extents()
    first = provider.index("teaches", 2, (0,))
    assert provider.index("teaches", 2, (0,)) is first
    # a different probe shape is a different index
    assert provider.index("teaches", 2, (1,)) is not first
    # data mutation rebuilds
    system.database["t_teaches"].insert(("bob", "compilers"))
    assert provider.index("teaches", 2, (0,)) is not first


def test_explicit_invalidate_drops_extents_and_indexes():
    system = _campus_system()
    provider = system.extents()
    provider.extent("Teacher", 1)
    index = provider.index("teaches", 2, ())
    provider.invalidate()
    assert provider._cache == {}
    assert provider.index("teaches", 2, ()) is not index


# -- non-poisoning -------------------------------------------------------------


def _big_abox_extents(rows: int = 1200) -> ABoxExtents:
    abox = ABox()
    role = AtomicRole("P")
    for i in range(rows):
        abox.add(RoleAssertion(role, Individual(f"a{i}"), Individual(f"b{i}")))
    return ABoxExtents(abox)


def test_budget_abort_during_index_build_installs_nothing():
    provider = _big_abox_extents()
    expired = Budget(0.0, task="index")
    with pytest.raises(TimeoutExceeded):
        provider.index("P", 2, (0,), budget=expired)
    assert ("P", 2, (0,)) not in provider._index_cache
    # the next (funded) build succeeds and is complete
    index = provider.index("P", 2, (0,))
    assert sum(len(rows) for rows in index.values()) == 1200


def test_budget_abort_leaves_answer_cache_empty():
    system = _campus_system()
    query = "q(x) :- Teacher(x), teaches(x, y)"
    with pytest.raises(TimeoutExceeded):
        system.certain_answers(query, check_consistency=False, budget=Budget(0.0))
    assert len(system._answer_cache) == 0
    assert len(system._rewriting_cache) == 0
    answers = system.certain_answers(query, check_consistency=False)
    assert answers == {(Individual("ada"),), (Individual("bob"),)}


def test_fallback_timeout_does_not_poison_classification_cache():
    """S6: a timed-out engine slice leaves the shared cache untouched."""
    from repro.baselines import make_reasoner

    tbox = parse_tbox(TBOX_TEXT)
    cache = ClassificationCache()
    with pytest.raises(TimeoutExceeded):
        cache.classify(tbox, watch=Budget(0.0, task="slice"))
    assert len(cache) == 0

    # the chain itself recovers on a later engine; only the *completed*
    # classification may then enter the cache
    chain = FallbackChain(
        [make_reasoner("quonto-graph"), make_reasoner("quonto-graph")],
        per_engine_budget_s=30.0,
    )
    result = chain.classify_with_report(tbox)
    assert result.classification is not None
    completed = cache.classify(tbox)
    assert len(cache) == 1
    assert cache.classify(tbox) is completed


# -- wrappers share the provider's indexes ---------------------------------------


def test_retry_wrapped_queries_reuse_the_shared_indexes():
    """A retry policy wraps the shared provider per call; the wrapper
    delegates index() to it instead of rebuilding every index."""
    system = _campus_system()
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
    builds = global_metrics().counter("obda.evaluation.index_builds")
    system.certain_answers(
        "q(x) :- teaches(x, 'logic')", check_consistency=False, retry=policy
    )
    before = builds.value
    for course in ("compilers", "algebra"):
        # distinct constants: each query misses the answer cache
        system.certain_answers(
            f"q(x) :- teaches(x, '{course}')", check_consistency=False, retry=policy
        )
    assert builds.value == before


# -- consistency re-checks -------------------------------------------------------


def test_consistency_rechecks_reuse_the_tbox_only_rewritings(monkeypatch):
    import repro.obda.system as system_module

    system = _campus_system(
        TBOX_TEXT + "funct teaches\nGhost isa Teacher\nGhost isa not Teacher\n"
    )
    assert system.inconsistency_witnesses() == []
    calls = []
    original = system_module.perfect_ref

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(system_module, "perfect_ref", counting)
    for course in ("compilers", "algebra"):
        system.database["t_teaches"].insert((f"new-{course}", course))
        assert system.inconsistency_witnesses() == []
    assert calls == []
    # the data changed: each check really ran
    system.database["t_teaches"].insert(("ada", "logic-2"))
    assert system.inconsistency_witnesses() == [
        "functionality violated: (funct teaches)"
    ]


# -- the delta path is exact -----------------------------------------------------

_DELTA_TBOX = """
role teaches, enrolledIn, worksIn, colleague
attribute tag
Professor isa Member
Student isa Member
exists teaches isa Professor
exists teaches^- isa Course
exists enrolledIn isa Student
exists enrolledIn^- isa Course
Professor isa not Student
funct worksIn
"""

_DELTA_TABLES = {
    "person": ("id", "kind", "tag"),
    "course": ("code", "dept"),
    "teaching": ("staff", "course"),
    "enrolment": ("student", "course"),
}

#: typed cells that share string forms (``1``/``"1"``) or compare equal
#: under ``==`` while rendering apart (``1``/``1.0``/``True``)
_DELTA_CELLS = (*LITERAL_CELLS.values(), *LITERAL_CELLS, "a", "b")

_DELTA_ARITIES = {
    "Professor": 1,
    "Student": 1,
    "Course": 1,
    "Member": 1,
    "tag": 2,
    "teaches": 2,
    "enrolledIn": 2,
    "worksIn": 2,
    "colleague": 2,
}

_DELTA_QUERIES = (
    "q(x) :- Member(x)",
    "q(x, y) :- teaches(x, y), Course(y)",
    "q(x, v) :- tag(x, v)",
    "q(x, d) :- worksIn(x, d), enrolledIn(x, c)",
    "q(x) :- Professor(x), tag(x, v)",
)

_METHODS = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")


def _delta_mappings() -> MappingCollection:
    def concept(sql, name, template="p/{id}"):
        return MappingAssertion(
            sql, [TargetAtom(AtomicConcept(name), (IriTemplate(template),))]
        )

    def role(sql, name, subject, object_):
        return MappingAssertion(
            sql,
            [
                TargetAtom(
                    AtomicRole(name), (IriTemplate(subject), IriTemplate(object_))
                )
            ],
        )

    return MappingCollection(
        [
            concept("SELECT id FROM person WHERE kind = 'prof'", "Professor"),
            concept("SELECT id FROM person WHERE kind = 'student'", "Student"),
            MappingAssertion(
                "SELECT id, tag FROM person",
                [
                    TargetAtom(
                        AtomicAttribute("tag"), (IriTemplate("p/{id}"), ValueColumn("tag"))
                    )
                ],
            ),
            role("SELECT staff, course FROM teaching", "teaches", "p/{staff}", "c/{course}"),
            role(
                "SELECT student, course FROM enrolment",
                "enrolledIn",
                "p/{student}",
                "c/{course}",
            ),
            # one predicate fed by two assertions
            concept("SELECT code FROM course", "Course", "c/{code}"),
            concept("SELECT course FROM teaching", "Course", "c/{course}"),
            # a source joining two tables
            role(
                "SELECT t.staff, c.dept FROM teaching t JOIN course c "
                "ON t.course = c.code",
                "worksIn",
                "p/{staff}",
                "d/{dept}",
            ),
            # a UNION source over two tables
            concept("SELECT id FROM person UNION SELECT student FROM enrolment", "Member"),
            # a source reading one table twice
            role(
                "SELECT a.staff AS x, b.staff AS y FROM teaching a JOIN teaching b "
                "ON a.course = b.course",
                "colleague",
                "p/{x}",
                "p/{y}",
            ),
        ]
    )


def _delta_row(rng, table):
    """A fresh row tuple for *table* (never an object already stored)."""
    if table == "person":
        return (rng.choice(_DELTA_CELLS), rng.choice(("prof", "student", "staff")),
                rng.choice(_DELTA_CELLS))
    return tuple([rng.choice(_DELTA_CELLS), rng.choice(_DELTA_CELLS)])


class _InsertOnCount(list):
    """*table*'s rows, where one insert of *row* lands right after the
    next reader takes the row count (the reader sees the old count)."""

    def __init__(self, table, row):
        super().__init__(table.rows)
        self.pending = (table, row)

    def __len__(self):
        count = super().__len__()
        if self.pending is not None:
            table, row = self.pending
            self.pending = None
            table.insert(row)
        return count


def _reprs(rows):
    return sorted(map(repr, rows))


def _fresh_index(rows, positions):
    index = {}
    for row in rows:
        index.setdefault(join_key(row[i] for i in positions), []).append(row)
    return index


def _same_buckets(index, fresh):
    return sorted(index) == sorted(fresh) and all(
        _reprs(index[key]) == _reprs(fresh[key]) for key in fresh
    )


def _buckets(index):
    return {key: list(rows) for key, rows in index.items()}


def _hold_table_indexes(database, held):
    """Append to *held* every table index of *database*, as a probe
    would get it now, with its buckets at that moment."""
    for table in database.tables():
        for positions in list(table._indexes):
            index = table.index(positions)
            held.append((index, _buckets(index)))


def _assert_table_indexes(database, held):
    """Every table index equals a fresh build, bucket for bucket, and
    every index in *held* still has the buckets it had when held."""
    for table in database.tables():
        for positions in list(table._indexes):
            fresh = _fresh_index(table.rows, positions)
            assert _same_buckets(table.index(positions), fresh), (table.name, positions)
    for index, buckets in held:
        assert _buckets(index) == buckets


def _held_back(database, call):
    """*call*'s result with every pending mid-count insert of *database*
    held back, so the call itself inserts nothing."""
    pending = [
        (table.rows, table.rows.pending)
        for table in database.tables()
        if isinstance(table.rows, _InsertOnCount)
    ]
    for rows, _ in pending:
        rows.pending = None
    try:
        return call()
    finally:
        for rows, row in pending:
            rows.pending = row


def _bracketed(database, ask, oracle):
    """Assert that ``ask()`` lies between ``oracle()`` before and after
    it: answers grow with inserts, so a call that a mid-count insert
    raced sees at least the rows before it and at most those after it;
    with no insert during the call, the bounds meet."""
    before = _held_back(database, oracle)
    found = ask()
    after = _held_back(database, oracle)
    assert set(before) <= set(found) <= set(after), (before, found, after)


@given(st.integers(0, 2**32 - 1))
@example(1899239)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_refreshes_match_fresh_pulls(seed):
    """Seeded interleavings of inserts, out-of-band shrinks and reads:
    each answer and consistency verdict, extended or not, matches a
    cache-free twin as it is made, and afterwards every cache equals
    what a cache-free pull computes."""
    rng = random.Random(seed)
    tbox = parse_tbox(_DELTA_TBOX)
    mappings = _delta_mappings()
    database = Database("delta")
    for name, columns in _DELTA_TABLES.items():
        database.create_table(
            name, columns, [_delta_row(rng, name) for _ in range(rng.randint(0, 3))]
        )
    system = OBDASystem(tbox, mappings, database)
    cache_free = OBDASystem(tbox, mappings, database, enable_caches=False)
    provider = system.extents()
    constraints = ExtensionalConstraints(provider)
    queries = [parse_query(text) for text in _DELTA_QUERIES]
    rewritings = [system.rewrite(query) for query in queries]
    derived = [
        DatalogExtents(system.rewrite(query, method="presto"), provider)
        for query in queries
    ]
    held = []  # (index, its buckets when returned): published indexes never change
    table_held = []  # the same for the tables' own indexes

    def hold(index):
        held.append((index, _buckets(index)))

    for _ in range(rng.randint(10, 40)):
        roll = rng.random()
        if roll < 0.4:
            table = rng.choice(sorted(_DELTA_TABLES))
            database[table].insert(_delta_row(rng, table))
        elif roll < 0.5:
            # out of band: truncate, then an insert moves the generations
            table = database[rng.choice(sorted(_DELTA_TABLES))]
            del table.rows[rng.randint(0, len(table.rows)):]
            table.insert(_delta_row(rng, table.name))
        elif roll < 0.55:
            # a concurrent insert lands right after the next reader counts rows
            table = database[rng.choice(sorted(_DELTA_TABLES))]
            table.rows = _InsertOnCount(table, _delta_row(rng, table.name))
        elif roll < 0.75:
            predicate, arity = rng.choice(sorted(_DELTA_ARITIES.items()))
            provider.extent(predicate, arity)
            hold(provider.index(predicate, arity, rng.choice(((), (0,), (arity - 1,)))))
            program = rng.choice(derived)
            head, rules = rng.choice(sorted(program.rewriting.rules_by_head.items()))
            hold(program.index(head, rules[0].head.arity, ()))
            constraints.relevant_inclusions(rng.choice(rewritings))
            _hold_table_indexes(database, table_held)
        else:
            query, method = rng.choice(queries), rng.choice(_METHODS)
            _bracketed(
                database,
                lambda: system.certain_answers(
                    query, method=method, check_consistency=False
                ),
                lambda: (
                    naive_sql_answers(cache_free, query, check_consistency=False)
                    if method == "perfectref-sql"
                    else cache_free.certain_answers(
                        query, method=method, check_consistency=False
                    )
                ),
            )
            if rng.random() < 0.3:
                _bracketed(
                    database,
                    system.inconsistency_witnesses,
                    cache_free.inconsistency_witnesses,
                )
            _hold_table_indexes(database, table_held)

    for table in database.tables():
        if isinstance(table.rows, _InsertOnCount):
            table.rows.pending = None
    # extents: element for element, raw cells included
    for predicate, arity in _DELTA_ARITIES.items():
        fresh = mappings.predicate_extent(database, predicate)
        assert _reprs(provider.extent(predicate, arity)) == _reprs(fresh), predicate
    # indexes: bucket for bucket, current and published alike
    for predicate, arity, positions in list(getattr(provider, "_index_cache", {})):
        fresh = _fresh_index(mappings.predicate_extent(database, predicate), positions)
        assert _same_buckets(provider.index(predicate, arity, positions), fresh)
    for index, buckets in held:
        assert _buckets(index) == buckets
    # derived extents, verdicts and answers against cache-free twins
    oracle_base = MappingExtents(mappings, database)
    for program in derived:
        twin = DatalogExtents(program.rewriting, oracle_base)
        for head, rules in program.rewriting.rules_by_head.items():
            arity = rules[0].head.arity
            assert program.extent(head, arity) == twin.extent(head, arity)
    oracle_constraints = ExtensionalConstraints(oracle_base)
    for rewritten in rewritings:
        assert constraints.relevant_inclusions(
            rewritten
        ) == oracle_constraints.relevant_inclusions(rewritten)
    # perfectref-sql against the naive evaluator: a cache-free twin would
    # probe the same table indexes
    try:
        for query in queries:
            for method in _METHODS:
                expected = (
                    naive_sql_answers(cache_free, query, check_consistency=False)
                    if method == "perfectref-sql"
                    else cache_free.certain_answers(
                        query, method=method, check_consistency=False
                    )
                )
                assert system.certain_answers(
                    query, method=method, check_consistency=False
                ) == expected, (method, str(query))
        assert system.inconsistency_witnesses() == cache_free.inconsistency_witnesses()
    finally:
        for twin_system in (system, cache_free):
            backend = twin_system._sql_backend
            if backend is not None:
                backend.close()
    _assert_table_indexes(database, table_held)


def test_budget_abort_during_index_extension_installs_nothing():
    database = Database("big")
    database.create_table("pairs", ["s", "o"], [(i, i + 1) for i in range(10)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s, o FROM pairs",
                [
                    TargetAtom(
                        AtomicRole("P"), (IriTemplate("a/{s}"), IriTemplate("a/{o}"))
                    )
                ],
            )
        ]
    )
    provider = MappingExtents(mappings, database)
    before = provider.index("P", 2, (0,))
    cached = provider._index_cache[("P", 2, (0,))]
    database["pairs"].insert_many((i, i + 1) for i in range(10, 1210))
    with pytest.raises(TimeoutExceeded):
        provider.index("P", 2, (0,), budget=Budget(0.0, task="extend"))
    assert provider._index_cache[("P", 2, (0,))] is cached
    assert sum(len(rows) for rows in before.values()) == 10
    extends = global_metrics().counter("obda.evaluation.index_extends").value
    index = provider.index("P", 2, (0,))
    assert global_metrics().counter("obda.evaluation.index_extends").value == extends + 1
    assert sum(len(rows) for rows in index.values()) == 1210
    assert provider.delta_pulls == 1 and provider.pulls == 1


def test_a_refresh_by_appended_rows_is_counted_and_traced():
    system = _campus_system()
    query = "q(x, y) :- teaches(x, y)"
    system.certain_answers(query, check_consistency=False)
    pulls = system.cache_stats()["extents"]["source_pulls"]
    deltas = global_metrics().counter("obda.extents.delta_pulls")
    before = deltas.value
    system.database["t_teaches"].insert(("bob", "compilers"))
    tracer = Tracer("refresh")
    with use_tracer(tracer):
        answers = system.certain_answers(query, check_consistency=False)
    assert (Individual("bob"), Individual("compilers")) in answers
    assert system.cache_stats()["extents"] == {
        "source_pulls": pulls,
        "delta_pulls": 1,
    }
    assert deltas.value == before + 1
    [span] = [span for span in tracer.spans if span.name == "extent-delta"]
    assert span.attributes == {"predicate": "teaches", "rows": 1}


@pytest.mark.parametrize(
    "predicate, table, row",
    [
        ("worksIn", "teaching", ("s9", "c1")),  # a join
        ("Member", "enrolment", ("s9", "c1")),  # a UNION
        ("colleague", "teaching", ("s9", "c1")),  # a self-join
        ("Course", "teaching", ("s9", "c9")),  # two assertions
    ],
)
def test_every_mapping_shape_refreshes_by_delta(predicate, table, row):
    database = Database("shapes")
    for name, rows in (
        ("person", [("p1", "prof", "x")]),
        ("course", [("c1", "d1")]),
        ("teaching", [("p1", "c1")]),
        ("enrolment", [("s1", "c1")]),
    ):
        database.create_table(name, _DELTA_TABLES[name], rows)
    mappings = _delta_mappings()
    provider = MappingExtents(mappings, database)
    arity = _DELTA_ARITIES[predicate]
    before = provider.extent(predicate, arity)
    pulls = provider.pulls
    database[table].insert(row)
    tracer = Tracer("refresh")
    with use_tracer(tracer):
        after = provider.extent(predicate, arity)
    assert (provider.pulls, provider.delta_pulls) == (pulls, 1)
    refreshes = [span.name for span in tracer.spans if span.name.startswith("extent-")]
    assert refreshes == ["extent-delta"]
    assert _reprs(after) == _reprs(mappings.predicate_extent(database, predicate))
    assert after > before


def test_an_extent_keeps_the_cell_its_table_holds_first():
    """Of raw cells equal under ``==`` (``1.0`` and ``True``), an extent
    keeps the one its table holds first, as a fresh pull does."""
    database = Database("cells")
    database.create_table(
        "person",
        _DELTA_TABLES["person"],
        [(f"p{i}", "prof", cell) for i in range(8) for cell in (1.0, True)],
    )
    mappings = _delta_mappings()
    fresh = mappings.predicate_extent(database, "tag")
    assert _reprs(fresh) == _reprs([(Individual(f"p/p{i}"), 1.0) for i in range(8)])
    assert _reprs(MappingExtents(mappings, database).extent("tag", 2)) == _reprs(fresh)


@pytest.mark.parametrize("method", ("perfectref", "perfectref-sql", "perfectref-sqlite"))
def test_a_row_read_past_the_start_stamp_then_replaced_is_recomputed(method):
    """The join reads a row inserted after it stamped the table (the
    replica holds only the rows of its stamp); an out-of-band edit that
    replaces that row leaves no answer of it."""
    database = Database("replaced")
    table = database.create_table("t_teaches", ["s", "o"], [("ada", "logic")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s, o FROM t_teaches",
                [TargetAtom(AtomicRole("teaches"), (IriTemplate("{s}"), IriTemplate("{o}")))],
            )
        ]
    )
    system = OBDASystem(parse_tbox(TBOX_TEXT), mappings, database)
    query = "q(x, y) :- teaches(x, y)"
    table.rows = _InsertOnCount(table, ("bob", "algebra"))
    first = system.certain_answers(query, method=method, check_consistency=False)
    assert len(first) == (1 if method == "perfectref-sqlite" else 2)
    del table.rows[1:]
    table.insert(("eve", "logic"))
    answers = system.certain_answers(query, method=method, check_consistency=False)
    assert answers == _cache_free(system, query, method)
    assert (Individual("bob"), Individual("algebra")) not in answers


def test_mapped_answers_never_run_the_algebra_evaluator(monkeypatch):
    """perfectref and presto read the mapped extents through the table
    join, cold and after an append, consistency checks included."""
    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran on the query path")

        return call

    for module in (algebra, mapping, unfolding):
        monkeypatch.setattr(module, "evaluate", forbidden("algebra.evaluate"))
    monkeypatch.setattr(
        MappingCollection, "predicate_extent", forbidden("predicate_extent")
    )
    system = _campus_system(_CONSISTENCY_TBOX)
    methods = ("perfectref", "presto")
    for method in methods:
        system.certain_answers(_ASKED, method=method)
    system.database["t_teaches"].insert(("bob", "compilers"))
    answers = {method: system.certain_answers(_ASKED, method=method) for method in methods}
    monkeypatch.undo()
    assert calls == []
    for method, found in answers.items():
        assert found == _cache_free(system, _ASKED, method)


# -- answers and verdicts extended by appended rows ---------------------------------

#: the methods whose answer-cache entries grow by deltas: all four
_EXTENDING = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")
_ASKED = "q(x, y) :- Teacher(x), teaches(x, y)"


def _evaluation_joins(tracer):
    """The ``join`` spans of answer and consistency evaluation: not those
    an extent refresh opens under ``extent-pull`` or ``extent-delta``."""
    refreshes = {
        span.span_id for span in tracer.spans if span.name in ("extent-pull", "extent-delta")
    }
    return [
        span
        for span in tracer.spans
        if span.name == "join" and span.parent_id not in refreshes
    ]


def _ask(system, query, method, budget=None):
    """One call's answers, its root span's ``answer_cache`` outcome and
    the spans of its evaluation: the ``join`` spans, or perfectref-sqlite's
    ``backend-exec`` spans (one per statement run)."""
    tracer = Tracer("ask")
    with use_tracer(tracer):
        answers = system.certain_answers(
            query, method=method, check_consistency=False, budget=budget
        )
    [root] = [span for span in tracer.spans if span.name == "certain-answers"]
    pushdowns = [span for span in tracer.spans if span.name == "backend-exec"]
    return answers, root.attributes["answer_cache"], _evaluation_joins(tracer) + pushdowns


def _cache_free(system, query, method):
    twin = OBDASystem(system.tbox, system.mappings, system.database, enable_caches=False)
    if method == "perfectref-sql":
        return naive_sql_answers(twin, query, check_consistency=False)
    return twin.certain_answers(query, method=method, check_consistency=False)


@pytest.mark.parametrize("method", _EXTENDING)
def test_an_append_extends_the_cached_answers_and_counts_as_a_miss(method):
    system = _campus_system()
    _, outcome, _ = _ask(system, _ASKED, method)
    assert outcome == "miss"
    stats = system.cache_stats()["answers"]
    system.database["t_teaches"].insert(("bob", "compilers"))
    answers, outcome, joins = _ask(system, _ASKED, method)
    assert outcome == "extended"
    after = system.cache_stats()["answers"]
    assert (after["hits"], after["misses"]) == (stats["hits"], stats["misses"] + 1)
    assert (Individual("bob"), Individual("compilers")) in answers
    assert answers == _cache_free(system, _ASKED, method)
    if method == "perfectref-sqlite":
        # one delta statement, naming the grown table and its appended rows
        assert [span.attributes["delta_rows"] for span in joins] == [{"t_teaches": 1}]
    else:
        # every join of the extension reads the appended rows at one atom
        assert joins and all(span.attributes["delta_rows"] == 1 for span in joins)
    # a hit is still an answer served without evaluation
    again, outcome, joins = _ask(system, _ASKED, method)
    assert (again, outcome, joins) == (answers, "hit", [])
    assert system.cache_stats()["answers"]["hits"] == after["hits"] + 1


@pytest.mark.parametrize("method", _EXTENDING)
def test_a_write_to_a_table_the_answers_never_read_is_a_hit(method):
    system = _campus_system()
    system.database.create_table("t_other", ["s"])
    answers, _, _ = _ask(system, _ASKED, method)
    system.database["t_other"].insert(("zed",))
    assert _ask(system, _ASKED, method) == (answers, "hit", [])


def _shrink(system):
    """Out of band: replace the one row of t_teaches, so the table holds
    as many rows as before but did not grow from them."""
    table = system.database["t_teaches"]
    del table.rows[:]
    table.insert(("bob", "compilers"))


def _refresh_twice(system):
    """Two appends, each seen by a read of the extent in between: the
    extent moves by two deltas between the asks."""
    for course in ("compilers", "algebra"):
        system.database["t_teaches"].insert(("bob", course))
        system.extents().extent("teaches", 2)


def _change_tbox(system):
    system.tbox.add(parse_axiom("Lecturer isa Teacher"))
    system.database["t_teaches"].insert(("bob", "compilers"))


def _invalidate(system):
    system.database["t_teaches"].insert(("bob", "compilers"))
    system.invalidate_caches()


@pytest.mark.parametrize(
    "method, fallback",
    [
        (method, fallback)
        for fallback in (_shrink, _refresh_twice, _change_tbox, _invalidate)
        for method in _EXTENDING
        # the SQL methods read the tables, not the extents
        if not (fallback is _refresh_twice and method.startswith("perfectref-sql"))
    ],
    ids=lambda value: getattr(value, "__name__", value).strip("_"),
)
def test_fallbacks_recompute_in_full(method, fallback):
    system = _campus_system()
    _ask(system, _ASKED, method)
    fallback(system)
    answers, outcome, joins = _ask(system, _ASKED, method)
    assert outcome == "miss"
    assert joins and "delta_rows" not in {key for span in joins for key in span.attributes}
    assert answers == _cache_free(system, _ASKED, method)


@pytest.mark.parametrize("method", _EXTENDING)
def test_a_bulk_load_after_an_ask_on_empty_tables_recomputes_in_full(method):
    database = Database("empty")
    database.create_table("t_teaches", ["s", "o"])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s, o FROM t_teaches",
                [TargetAtom(AtomicRole("teaches"), (IriTemplate("{s}"), IriTemplate("{o}")))],
            )
        ]
    )
    system = OBDASystem(parse_tbox(TBOX_TEXT), mappings, database)
    answers, outcome, _ = _ask(system, _ASKED, method)
    assert (answers, outcome) == (set(), "miss")
    system.database["t_teaches"].insert_many(
        [(f"p{i}", f"c{i}") for i in range(5)]
    )
    answers, outcome, _ = _ask(system, _ASKED, method)
    assert outcome == "miss"
    assert len(answers) == 5
    assert answers == _cache_free(system, _ASKED, method)


@pytest.mark.parametrize("method", ("perfectref", "perfectref-sql", "perfectref-sqlite"))
def test_budget_abort_during_an_extension_leaves_the_old_entry(method, monkeypatch):
    system = _campus_system()
    query = parse_query(_ASKED)
    before, _, _ = _ask(system, query, method)
    template = template_key(query)
    key = (template.shape, template.keys, method, system._tbox_generation)
    entry = system._answer_cache.peek(key)
    assert entry is not None and entry.answers == before
    system.database["t_teaches"].insert(("bob", "compilers"))

    def expired(self, stride=None):
        raise TimeoutExceeded(self.budget_s, self.elapsed_s, task=self.task)

    with monkeypatch.context() as patched:
        # every check passes, and the first binding or index row expires
        patched.setattr(Budget, "tick", expired)
        with pytest.raises(TimeoutExceeded):
            system.certain_answers(
                query, method=method, check_consistency=False, budget=60.0
            )
    assert system._answer_cache.peek(key) is entry
    answers, outcome, _ = _ask(system, query, method)
    assert outcome == "extended"
    assert answers == _cache_free(system, query, method) != before


def test_a_self_join_over_a_grown_table_bounds_each_of_its_atoms():
    """perfectref-sqlite's delta statement has one SELECT per atom over
    a grown table, that atom reading only the rows past the cached
    entry's count: the appended row pairs with the old one at either
    atom, and the old row alone is never read at a bounded atom."""
    database = Database("colleagues")
    database.create_table("t_teaches", ["s", "o"], [("ada", "logic")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s, o FROM t_teaches",
                [TargetAtom(AtomicRole("teaches"), (IriTemplate("{s}"), IriTemplate("{o}")))],
            )
        ]
    )
    system = OBDASystem(parse_tbox("role teaches\n"), mappings, database)
    query, method = "q(x, z) :- teaches(x, c), teaches(z, c)", "perfectref-sqlite"
    _ask(system, query, method)
    database["t_teaches"].insert(("bob", "logic"))
    answers, outcome, [span] = _ask(system, query, method)
    assert outcome == "extended"
    assert answers == _cache_free(system, query, method)
    # (ada, bob) reads the appended row at the second atom only
    assert (Individual("ada"), Individual("bob")) in answers
    assert span.attributes["sql"].count(".rowid > ?") == 2
    # (bob, ada), (bob, bob) bounded first; (ada, bob), (bob, bob) second
    assert span.attributes["rows_fetched"] == 4


def test_a_second_extension_reuses_the_delta_statement():
    """The delta statement is cached by the set of grown tables and
    takes each bound per call: the second extension hits it and reads
    only its own appended row."""
    system = _campus_system()
    method = "perfectref-sqlite"
    _ask(system, _ASKED, method)
    for course, statement_cache in (("compilers", "miss"), ("algebra", "hit")):
        system.database["t_teaches"].insert(("bob", course))
        answers, outcome, [span] = _ask(system, _ASKED, method)
        assert (outcome, span.attributes["statement_cache"]) == ("extended", statement_cache)
        assert span.attributes["delta_rows"] == {"t_teaches": 1}
        assert span.attributes["rows_fetched"] == 1
        assert (Individual("bob"), Individual(course)) in answers
        assert answers == _cache_free(system, _ASKED, method)


_CONSISTENCY_TBOX = TBOX_TEXT + "Teacher isa not Student\n"


def test_consistency_checks_extend_and_catch_a_violating_append():
    system = _campus_system(_CONSISTENCY_TBOX)
    system.database.create_table("t_Student", ["s"], [("carl",)])
    system.mappings.add(
        MappingAssertion(
            "SELECT s FROM t_Student",
            [TargetAtom(AtomicConcept("Student"), (IriTemplate("{s}"),))],
        )
    )
    system.invalidate_caches()
    assert system.inconsistency_witnesses() == []

    def recheck():
        tracer = Tracer("consistency")
        with use_tracer(tracer):
            witnesses = system.inconsistency_witnesses()
        [span] = [span for span in tracer.spans if span.name == "consistency"]
        joins = _evaluation_joins(tracer)
        twin = OBDASystem(
            system.tbox, system.mappings, system.database, enable_caches=False
        )
        assert witnesses == twin.inconsistency_witnesses()
        return witnesses, span.attributes, joins

    system.database["t_Student"].insert(("dan",))
    witnesses, attributes, joins = recheck()
    assert witnesses == []
    assert (attributes["checks_extended"], attributes["checks_recomputed"]) == (1, 0)
    assert joins and all("delta_rows" in span.attributes for span in joins)
    system.database["t_teaches"].insert(("dan", "logic"))  # dan teaches: a Teacher
    witnesses, attributes, _ = recheck()
    assert witnesses == ["negative inclusion violated: Teacher ⊑ ¬Student"]
    assert attributes["checks_extended"] == 1
    # a violated check stays violated while its extents only grow
    system.database["t_Student"].insert(("eve",))
    witnesses, attributes, joins = recheck()
    assert witnesses == ["negative inclusion violated: Teacher ⊑ ¬Student"]
    assert (attributes["checks_extended"], joins) == (0, [])
    # an out-of-band edit that drops the violating row is recomputed
    table = system.database["t_teaches"]
    del table.rows[-1:]
    table.insert(("ada", "algebra"))
    witnesses, attributes, _ = recheck()
    assert witnesses == []
    assert attributes["checks_recomputed"] == 1


# -- Presto's derived extents: aliases and deltas --------------------------------

_X, _Y = Variable("x"), Variable("y")


def _rule(head, head_args, body, body_args):
    return DatalogRule(Atom(head, head_args), (Atom(body, body_args),))


#: one alias of each arity, a single swap and a single value projection
#: (derived, not aliased), and heads fed by several rules
_DERIVED_RULES = (
    _rule("P*", (_X, _Y), "P", (_X, _Y)),
    _rule("C*", (_X,), "C", (_X,)),
    _rule("Pinv*", (_X, _Y), "P", (_Y, _X)),
    _rule("V*", (_X,), "U", (_Y, _X)),
    _rule("S*", (_X, _Y), "P", (_X, _Y)),
    _rule("S*", (_X, _Y), "Q", (_Y, _X)),
    _rule("D*", (_X,), "C", (_X,)),
    _rule("D*", (_X,), "P", (_X, _Y)),
    _rule("D*", (_X,), "Q", (_Y, _X)),
    _rule("D*", (_X,), "U", (_X, _Y)),
)

_DERIVED_ARITIES = {"P*": 2, "C*": 1, "Pinv*": 2, "V*": 1, "S*": 2, "D*": 1}

#: value cells with no two equal under == yet rendered apart, so a set
#: keeps the same representative however it was grown
_DERIVED_VALUES = ("1", 1, "a", 2.5)


def _derived_source():
    database = Database("derived")
    for name, columns in (("p", ("s", "o")), ("q", ("s", "o")), ("c", ("id",)),
                          ("u", ("s", "v"))):
        database.create_table(name, columns, [])

    def role(table, name):
        return MappingAssertion(
            f"SELECT s, o FROM {table}",
            [TargetAtom(AtomicRole(name), (IriTemplate("i/{s}"), IriTemplate("i/{o}")))],
        )

    mappings = MappingCollection(
        [
            role("p", "P"),
            role("q", "Q"),
            MappingAssertion(
                "SELECT id FROM c",
                [TargetAtom(AtomicConcept("C"), (IriTemplate("i/{id}"),))],
            ),
            MappingAssertion(
                "SELECT s, v FROM u",
                [
                    TargetAtom(
                        AtomicAttribute("U"), (IriTemplate("i/{s}"), ValueColumn("v"))
                    )
                ],
            ),
        ]
    )
    rewriting = DatalogRewriting(
        UnionQuery([ConjunctiveQuery((_X,), [Atom("D*", (_X,))])]),
        list(_DERIVED_RULES),
    )
    return database, mappings, rewriting


def _derived_row(rng, table):
    if table == "c":
        return (rng.randrange(6),)
    if table == "u":
        return (rng.randrange(6), rng.choice(_DERIVED_VALUES))
    return (rng.randrange(6), rng.randrange(6))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_derived_deltas_and_aliases_match_a_fresh_derivation(seed):
    rng = random.Random(seed)
    database, mappings, rewriting = _derived_source()
    for table in ("p", "q", "c", "u"):
        database[table].insert_many(
            _derived_row(rng, table) for _ in range(rng.randint(0, 4))
        )
    base = MappingExtents(mappings, database)
    provider = DatalogExtents(rewriting, base)
    held = []
    for _ in range(rng.randint(5, 30)):
        if rng.random() < 0.5:
            table = rng.choice(("p", "q", "c", "u"))
            database[table].insert(_derived_row(rng, table))
        else:
            head, arity = rng.choice(sorted(_DERIVED_ARITIES.items()))
            provider.extent(head, arity)
            positions = rng.choice(((), (0,), (arity - 1,)))
            index = provider.index(head, arity, positions)
            held.append((index, {key: list(rows) for key, rows in index.items()}))
    fresh_base = MappingExtents(mappings, database)
    fresh = DatalogExtents(rewriting, fresh_base)
    for head, arity in _DERIVED_ARITIES.items():
        derived = _reprs(provider.extent(head, arity))
        assert derived == _reprs(fresh.extent(head, arity)), head
        # ... and what the rules say, projected here without the provider
        expected = set()
        for rule in rewriting.rules_by_head[head]:
            (body,) = rule.body
            expected |= {
                tuple(row[body.args.index(arg)] for arg in rule.head.args)
                for row in fresh_base.extent(body.predicate, len(body.args))
            }
        assert derived == _reprs(expected), head
    for owner in (provider, base):
        for predicate, arity, positions in list(getattr(owner, "_index_cache", {})):
            assert _same_buckets(
                owner.index(predicate, arity, positions),
                _fresh_index(fresh.extent(predicate, arity), positions),
            ), (predicate, positions)
    for index, buckets in held:
        assert {key: list(rows) for key, rows in index.items()} == buckets


def test_an_identity_rule_is_served_as_its_base_predicate():
    database, mappings, rewriting = _derived_source()
    database["p"].insert((1, 2))
    base = MappingExtents(mappings, database)
    provider = DatalogExtents(rewriting, base)
    assert provider.snapshot("P*", 2) is base.snapshot("P", 2)
    assert provider.index("P*", 2, (0,)) is base.index("P", 2, (0,))
    assert provider.snapshot("C*", 1) is base.snapshot("C", 1)
    # a swapped copy is derived, not served as P
    assert provider.extent("Pinv*", 2) == {(Individual("i/2"), Individual("i/1"))}
    assert ("P*", 2) not in provider._cache and ("Pinv*", 2) in provider._cache


def test_a_derived_extent_grows_by_the_projected_delta():
    database, mappings, rewriting = _derived_source()
    database["p"].insert((1, 2))
    provider = DatalogExtents(rewriting, MappingExtents(mappings, database))
    before = provider.snapshot("D*", 1)
    index = provider.index("D*", 1, (0,))
    counters = global_metrics()
    deltas = counters.counter("obda.evaluation.derived_deltas").value
    builds = counters.counter("obda.evaluation.index_builds").value
    database["p"].insert((3, 4))
    database["q"].insert((5, 1))  # projects to i/1, already derived
    grown = provider.snapshot("D*", 1)
    assert grown.base == before.version
    assert grown.added == ((Individual("i/3"),),)
    assert grown.rows == before.rows | {(Individual("i/3"),)}
    assert counters.counter("obda.evaluation.derived_deltas").value == deltas + 1
    extended = provider.index("D*", 1, (0,))
    assert extended is not index and set(extended) == set(index) | {("i/3",)}
    assert counters.counter("obda.evaluation.index_builds").value == builds
    # a delta that adds nothing keeps the index as it is
    database["c"].insert((3,))
    assert provider.snapshot("D*", 1).added == ()
    assert provider.index("D*", 1, (0,)) is extended


def test_budget_abort_during_a_derived_delta_installs_nothing():
    database, mappings, rewriting = _derived_source()
    database["p"].insert_many((i, i + 1) for i in range(10))
    provider = DatalogExtents(rewriting, MappingExtents(mappings, database))
    provider.index("Pinv*", 2, (0,))
    cached = provider._index_cache[("Pinv*", 2, (0,))]
    database["p"].insert_many((i, i + 1) for i in range(10, 1210))
    with pytest.raises(TimeoutExceeded):
        provider.index("Pinv*", 2, (0,), budget=Budget(0.0, task="derived"))
    assert provider._index_cache[("Pinv*", 2, (0,))] is cached
    index = provider.index("Pinv*", 2, (0,))
    assert _same_buckets(index, _fresh_index(provider.extent("Pinv*", 2), (0,)))
    assert sum(len(rows) for rows in index.values()) == 1210
