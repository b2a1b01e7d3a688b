"""Cross-query extent caching, indexed joins, and cache non-poisoning."""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.dllite import parse_tbox
from repro.dllite.abox import ABox, Individual, RoleAssertion
from repro.dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from repro.errors import TimeoutExceeded
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
from repro.obda.rewriting.presto import DatalogRewriting, DatalogRule
from repro.obda.sql.database import Database
from repro.obda.sql.stats import join_key
from repro.obda.system import OBDASystem
from repro.obs.metrics import global_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.perf import ClassificationCache
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
    pulled = []
    original = system.mappings.predicate_extent

    def counting(database, predicate):
        pulled.append(predicate)
        return original(database, predicate)

    system.mappings.predicate_extent = counting
    first = system.certain_answers(
        "q(x) :- Teacher(x)", check_consistency=False
    )
    second = system.certain_answers(
        "q(x) :- Teacher(x), teaches(x, y)", check_consistency=False
    )
    assert first and second
    assert len(pulled) == len(set(pulled)), (
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
    assert ("P", (0,)) not in provider._index_cache
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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_refreshes_match_fresh_pulls(seed):
    """Seeded interleavings of inserts, out-of-band shrinks and reads:
    afterwards every cache equals what a cache-free pull computes."""
    rng = random.Random(seed)
    tbox = parse_tbox(_DELTA_TBOX)
    mappings = _delta_mappings()
    database = Database("delta")
    for name, columns in _DELTA_TABLES.items():
        database.create_table(
            name, columns, [_delta_row(rng, name) for _ in range(rng.randint(0, 3))]
        )
    system = OBDASystem(tbox, mappings, database)
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
            query = rng.choice(queries)
            system.certain_answers(
                query, method=rng.choice(_METHODS), check_consistency=False
            )
            if rng.random() < 0.3:
                system.inconsistency_witnesses()
            _hold_table_indexes(database, table_held)

    for table in database.tables():
        if isinstance(table.rows, _InsertOnCount):
            table.rows.pending = None
    # extents: element for element, raw cells included
    for predicate, arity in _DELTA_ARITIES.items():
        fresh = mappings.predicate_extent(database, predicate)
        assert _reprs(provider.extent(predicate, arity)) == _reprs(fresh), predicate
    # indexes: bucket for bucket, current and published alike
    for predicate, positions in list(getattr(provider, "_index_cache", {})):
        arity = _DELTA_ARITIES[predicate]
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
    oracle = OBDASystem(tbox, mappings, database, enable_caches=False)
    try:
        for query in queries:
            for method in _METHODS:
                expected = (
                    naive_sql_answers(oracle, query, check_consistency=False)
                    if method == "perfectref-sql"
                    else oracle.certain_answers(
                        query, method=method, check_consistency=False
                    )
                )
                assert system.certain_answers(
                    query, method=method, check_consistency=False
                ) == expected, (method, str(query))
        assert system.inconsistency_witnesses() == oracle.inconsistency_witnesses()
    finally:
        for twin_system in (system, oracle):
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
    cached = provider._index_cache[("P", (0,))]
    database["pairs"].insert_many((i, i + 1) for i in range(10, 1210))
    with pytest.raises(TimeoutExceeded):
        provider.index("P", 2, (0,), budget=Budget(0.0, task="extend"))
    assert provider._index_cache[("P", (0,))] is cached
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
    arities = {"P": 2, "Q": 2, "C": 1, "U": 2, **_DERIVED_ARITIES}
    for owner in (provider, base):
        for predicate, positions in list(getattr(owner, "_index_cache", {})):
            arity = arities[predicate]
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
    assert "P*" not in provider._cache and "Pinv*" in provider._cache


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
    cached = provider._index_cache[("Pinv*", (0,))]
    database["p"].insert_many((i, i + 1) for i in range(10, 1210))
    with pytest.raises(TimeoutExceeded):
        provider.index("Pinv*", 2, (0,), budget=Budget(0.0, task="derived"))
    assert provider._index_cache[("Pinv*", (0,))] is cached
    index = provider.index("Pinv*", 2, (0,))
    assert _same_buckets(index, _fresh_index(provider.extent("Pinv*", 2), (0,)))
    assert sum(len(rows) for rows in index.values()) == 1210
