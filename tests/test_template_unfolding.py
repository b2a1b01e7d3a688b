"""Unfoldings keyed by query template, their constants bound per call.

The SQL methods unfold a template's rewriting once, each query constant
a parameter (:class:`~repro.obda.sql.tablecq.Parameter`): a parameter
meeting an IRI template reads one value per placeholder (none, and no
row, where the template cannot parse it), one meeting a template without
placeholders is checked against its text, and one meeting a raw value
column reads its string form.  Both SQL executors bind a call's constants into the shared
unfolding, its table CQs and its SQLite statement.  These tests pin what
every bound call must equal: the naive algebra evaluator over a concrete
unfolding of that query (:func:`~repro.testkit.naive_sql_answers`), a
knowledge-base system over the materialized mappings, and a cache-free
twin.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dllite import parse_tbox
from repro.dllite.abox import Individual
from repro.dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.mapping import IriTemplate, ValueColumn
from repro.obda.queries import Atom, ConjunctiveQuery, Constant, UnionQuery, Variable
from repro.obda.rewriting.unfolding import unfold
from repro.obda.sql.algebra import Condition, Const, Rename, Selection
from repro.obda.sql.sqlparser import parse_sql
from repro.obda.sql.tablecq import Binding, Parameter, table_cqs
from repro.testkit import naive_sql_answers

METHODS = ("perfectref", "presto", "perfectref-sql", "perfectref-sqlite")
SQL_METHODS = ("perfectref-sql", "perfectref-sqlite")

_X, _Y = Variable("x"), Variable("y")


# -- a template without placeholders ---------------------------------------------


def _constant_iri_system():
    database = Database("constant-iri")
    database.create_table("r", ["s"], [(1,), (2,)])
    database.create_table("t", ["id"], [(1,), (2,)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s FROM r",
                [
                    TargetAtom(
                        AtomicRole("worksFor"),
                        (IriTemplate("p/{s}"), IriTemplate("org/acme")),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT id FROM t", [TargetAtom(AtomicConcept("A"), (IriTemplate("c/fixed"),))]
            ),
        ]
    )
    tbox = parse_tbox("concept A\nrole worksFor\n")
    return (
        OBDASystem(tbox, mappings=mappings, database=database),
        OBDASystem(tbox, abox=mappings.materialize(database)),
        mappings,
        database,
    )


def test_an_answer_variable_read_from_a_template_without_placeholders():
    system, kb, mappings, database = _constant_iri_system()
    assert mappings.predicate_extent(database, "A", 1) == {(Individual("c/fixed"),)}
    queries = (
        "q(y) :- worksFor(x, y)",
        "q(x) :- A(x)",
        "q(x, y) :- worksFor(x, y), A(z)",
        "q() :- A('c/fixed')",
        "q() :- A('c/other')",
        "q(x) :- worksFor(x, 'org/acme')",
        "q(x) :- worksFor(x, 'org/other')",
    )
    try:
        for query in queries:
            expected = kb.certain_answers(query)
            for method in METHODS:
                assert system.certain_answers(query, method=method) == expected, (
                    query,
                    method,
                )
            assert naive_sql_answers(system, query) == expected, query
        assert kb.certain_answers("q(y) :- worksFor(x, y)") == {(Individual("org/acme"),)}
        assert kb.certain_answers("q() :- A('c/fixed')") == {()}
        assert kb.certain_answers("q() :- A('c/other')") == set()
    finally:
        system.sql_backend().close()


@pytest.mark.parametrize("method", SQL_METHODS)
def test_a_template_without_placeholders_is_checked_against_each_constant(method):
    # one unfolding serves both constants: 'c/fixed' must not decide that
    # 'c/other' has the part's rows
    system, _, _, _ = _constant_iri_system()
    try:
        assert system.certain_answers("q() :- A('c/fixed')", method=method) == {()}
        assert system.certain_answers("q() :- A('c/other')", method=method) == set()
        assert system.certain_answers("q() :- A('c/fixed')", method=method) == {()}
        assert system.cache_stats()["unfolding"]["misses"] == 1
    finally:
        system.sql_backend().close()


@pytest.mark.parametrize(
    "subject, employer",
    # a newline after a value, then one inside a value
    [("p/1\n", None), ("p/a\nb", "org/globex")],
)
def test_a_constant_with_a_newline_is_parsed_whole(subject, employer):
    database = Database("newline")
    database.create_table("r", ["s", "o"], [("1", "acme"), ("a\nb", "globex")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT s, o FROM r",
                [
                    TargetAtom(
                        AtomicRole("worksFor"),
                        (IriTemplate("p/{s}"), IriTemplate("org/{o}")),
                    )
                ],
            )
        ]
    )
    tbox = parse_tbox("role worksFor\n")
    system = OBDASystem(tbox, mappings=mappings, database=database)
    kb = OBDASystem(tbox, abox=mappings.materialize(database))
    query = UnionQuery(
        [ConjunctiveQuery((_X,), [Atom("worksFor", (Constant(subject), _X))])]
    )
    expected = set() if employer is None else {(Individual(employer),)}
    try:
        assert kb.certain_answers(query) == expected
        for method in METHODS:
            assert system.certain_answers(query, method=method) == expected, method
    finally:
        system.sql_backend().close()


# -- table CQs with parameters -------------------------------------------------------


def test_a_class_fixed_by_a_literal_and_a_parameter_is_checked_at_bind_time():
    database = Database("cq")
    database.create_table("person", ["id", "kind"], [(1, "prof"), (2, "student")])
    template = IriTemplate("k/{kind}")
    source = parse_sql("SELECT id, kind FROM person WHERE kind = 'prof'")
    tree = Selection(
        Rename(source, "m0"),
        (Condition("m0.kind", Const(Parameter(0, template, 0)), "="),),
    )
    _, (cq,) = table_cqs(tree, database.table)
    assert cq.checks == (("prof", Parameter(0, template, 0)),)
    assert cq.shapes == ((None, "prof"),)
    assert Binding(("k/prof",)).bind(cq).shapes == ((None, "prof"),)
    assert Binding(("k/student",)).bind(cq) is None
    assert Binding(("x/prof",)).bind(cq) is None  # k/{kind} cannot parse it


def test_a_template_without_placeholders_is_a_check_on_the_constant():
    database = Database("cq")
    database.create_table("t", ["id"], [(1,)])
    tree = Selection(
        Rename(parse_sql("SELECT id FROM t"), "m0"),
        (Condition(Const(Parameter(0, None, 0)), Const("c/fixed"), "="),),
    )
    _, (cq,) = table_cqs(tree, database.table, outputs=False)
    assert cq.checks == (("c/fixed", Parameter(0, None, 0)),)
    assert Binding(("c/fixed",)).bind(cq).checks == ()
    assert Binding(("c/other",)).bind(cq) is None


# -- a seeded property over templates with several constants -------------------------

_TBOX = """
role worksFor
role headOf
role hasKind
role staffIn
role colleague
attribute score
attribute kindOf
headOf isa worksFor
"""


def _university(rng: random.Random):
    """A small staff database whose mappings meet query constants in
    every way the unfolder handles: two templates on one role position,
    a template without placeholders, a literal selection on a column a
    constant also fixes, ``!=`` in a source, and raw value columns over
    cells ``1``, ``'1'``, ``1.0`` and ``True``."""
    database = Database("staff")
    ids = rng.sample(range(1, 9), rng.randint(2, 6))
    database.create_table(
        "person",
        ["id", "kind", "dept"],
        [
            (
                person,
                rng.choice(["prof", "student", "lecturer"]),
                rng.choice([1, 2, "2", 2.0, "x"]),
            )
            for person in ids
        ],
    )
    database.create_table(
        "staff",
        ["pid", "org"],
        [(rng.choice(ids), rng.choice(["acme", "beta", 1])) for _ in range(rng.randint(0, 4))],
    )
    database.create_table(
        "vals",
        ["id", "v"],
        [(person, rng.choice([1, "1", 1.0, 2, True])) for person in ids if rng.random() < 0.8],
    )
    person = IriTemplate("p/{id}")
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id, dept FROM person",
                [TargetAtom(AtomicRole("worksFor"), (person, IriTemplate("d/{dept}")))],
            ),
            MappingAssertion(
                "SELECT pid, org FROM staff",
                [
                    TargetAtom(
                        AtomicRole("worksFor"), (IriTemplate("p/{pid}"), IriTemplate("o/{org}"))
                    )
                ],
            ),
            MappingAssertion(
                "SELECT id FROM person WHERE kind = 'prof'",
                [TargetAtom(AtomicRole("headOf"), (person, IriTemplate("org/acme")))],
            ),
            MappingAssertion(
                "SELECT id, kind FROM person WHERE kind = 'prof'",
                [
                    TargetAtom(AtomicRole("hasKind"), (person, IriTemplate("k/{kind}"))),
                    TargetAtom(AtomicAttribute("kindOf"), (person, ValueColumn("kind"))),
                ],
            ),
            MappingAssertion(
                "SELECT id, dept FROM person WHERE kind != 'student'",
                [TargetAtom(AtomicRole("staffIn"), (person, IriTemplate("d/{dept}")))],
            ),
            MappingAssertion(
                "SELECT a.id AS x, b.id AS y FROM person a JOIN person b ON a.dept = b.dept "
                "WHERE a.id != b.id",
                [
                    TargetAtom(
                        AtomicRole("colleague"), (IriTemplate("p/{x}"), IriTemplate("p/{y}"))
                    )
                ],
            ),
            MappingAssertion(
                "SELECT id, v FROM vals",
                [TargetAtom(AtomicAttribute("score"), (person, ValueColumn("v")))],
            ),
        ]
    )
    return parse_tbox(_TBOX), mappings, database


def _query(answer, atoms):
    return UnionQuery([ConjunctiveQuery(answer, atoms)])


#: per template, a function of its constants and the constants to draw
#: from; the first constant of the first list parses only against
#: ``d/{dept}``, later ones against ``o/{org}`` or no template at all
_TEMPLATES = [
    (
        lambda c: _query((_X,), [Atom("worksFor", (_X, c[0]))]),
        [["d/1", "o/acme", "org/acme", "org/other", "d/2", "d/2.0", "o/1", "zzz"]],
    ),
    (
        lambda c: _query((), [Atom("worksFor", (c[0], c[1]))]),
        [["p/1", "p/2", "p/3", "q/1"], ["org/acme", "d/1", "o/acme", "d/2"]],
    ),
    (
        lambda c: _query((_X,), [Atom("hasKind", (_X, c[0]))]),
        [["k/prof", "k/student", "prof", "k/"]],
    ),
    (
        lambda c: _query((_X,), [Atom("kindOf", (_X, c[0]))]),
        [["prof", "student", "k/prof"]],
    ),
    (
        lambda c: _query((_X,), [Atom("staffIn", (_X, c[0]))]),
        [["d/1", "d/2", "d/x", "d/2.0"]],
    ),
    (
        lambda c: _query((_Y,), [Atom("colleague", (c[0], _Y))]),
        [["p/1", "p/2", "p/3", "p/9", "x"]],
    ),
    (
        lambda c: _query((_X,), [Atom("score", (_X, c[0]))]),
        [[1, "1", 1.0, 2, True, "True"]],
    ),
    (  # one constant repeated
        lambda c: _query((_X,), [Atom("worksFor", (_X, c[0])), Atom("staffIn", (_X, c[0]))]),
        [["d/1", "d/2", "o/acme"]],
    ),
    (  # two distinct constants
        lambda c: _query((_X,), [Atom("worksFor", (_X, c[0])), Atom("staffIn", (_X, c[1]))]),
        [["d/1", "d/2"], ["d/x", "d/2.0"]],
    ),
    (
        lambda c: _query((_X,), [Atom("worksFor", (_X, _Y)), Atom("hasKind", (_X, c[0]))]),
        [["k/prof", "k/lecturer"]],
    ),
]


def _asks(rng: random.Random, count: int):
    """*count* queries, several per template, each with its own draw of
    constants (the pools of one template are disjoint, so its constants
    stay distinct)."""
    asks = []
    for _ in range(count):
        build, pools = rng.choice(_TEMPLATES)
        asks.append(build([Constant(rng.choice(pool)) for pool in pools]))
    return asks


@example(seed=0)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bound_template_unfoldings_match_concrete_ones(seed):
    """One warm system asked several constants per template by both SQL
    methods: every answer set equals the naive evaluator's over that
    query's concrete unfolding and a knowledge-base system's over the
    materialized mappings."""
    rng = random.Random(seed)
    tbox, mappings, database = _university(rng)
    system = OBDASystem(tbox, mappings=mappings, database=database)
    kb = OBDASystem(tbox, abox=mappings.materialize(database))
    try:
        for query in _asks(rng, 12):
            expected = kb.certain_answers(query)
            assert naive_sql_answers(system, query) == expected, str(query)
            for method in SQL_METHODS:
                assert system.certain_answers(query, method=method) == expected, (
                    str(query),
                    method,
                )
    finally:
        system.sql_backend().close()


def test_a_first_constant_prunes_no_part_another_constant_needs():
    rng = random.Random(3)
    tbox, mappings, database = _university(rng)
    database["staff"].insert((database["person"].rows[0][0], "acme"))
    system = OBDASystem(tbox, mappings=mappings, database=database)
    kb = OBDASystem(tbox, abox=mappings.materialize(database))
    build = _TEMPLATES[0][0]
    try:
        for method in SQL_METHODS:
            for name in ("d/1", "o/acme", "org/acme"):
                query = build([Constant(name)])
                assert system.certain_answers(query, method=method) == kb.certain_answers(
                    query
                ), (name, method)
        assert kb.certain_answers(build([Constant("o/acme")]))
        stats = system.cache_stats()["unfolding"]
        assert (stats["hits"], stats["misses"]) == (5, 1)
    finally:
        system.sql_backend().close()


def test_a_parameterized_unfolding_holds_every_part_of_its_template():
    tbox, mappings, database = _university(random.Random(1))
    system = OBDASystem(tbox, mappings=mappings, database=database)
    rewritten = system.rewrite(_TEMPLATES[0][0]([Constant("d/1")]))
    concrete = unfold(rewritten, mappings)
    template = unfold(rewritten, mappings, parameters=("d/1",))
    # 'd/1' parses only against d/{dept}: the concrete unfolding drops the
    # o/{org} and org/acme parts, the template keeps them for other
    # constants, and each call's binding keeps the parts it parses
    assert concrete.size == 1 and template.size == 3
    assert template.parameters == 1
    parts = [cqs for _, cqs, _ in template.converted(database.table)]

    def kept(key):
        binding = Binding((key,))
        return [any(binding.bind(cq) is not None for cq in cqs) for cqs in parts]

    kept_by = [kept(key) for key in ("d/1", "o/acme", "org/acme")]
    assert sorted(map(sum, kept_by)) == [1, 1, 1]
    assert [any(column) for column in zip(*kept_by)] == [True, True, True]
    assert kept("x/1") == [False, False, False]


# -- appends between constants -------------------------------------------------------


def test_appends_between_constants_match_a_cache_free_twin():
    rng = random.Random(11)
    tbox, mappings, database = _university(rng)
    system = OBDASystem(tbox, mappings=mappings, database=database)
    twin = OBDASystem(tbox, mappings=mappings, database=database, enable_caches=False)
    build = _TEMPLATES[7][0]  # worksFor(x, c), staffIn(x, c)
    first, second = build([Constant("d/1")]), build([Constant("d/2")])
    try:
        for method in SQL_METHODS:
            assert system.certain_answers(first, method=method) == twin.certain_answers(
                first, method=method
            )
        database["person"].insert((20, "prof", 1))
        database["person"].insert((21, "lecturer", 2))
        for method in SQL_METHODS:
            extended = system.certain_answers(first, method=method)
            assert extended == twin.certain_answers(first, method=method), method
            assert (Individual("p/20"),) in extended
            fresh = system.certain_answers(second, method=method)
            assert fresh == twin.certain_answers(second, method=method), method
            assert (Individual("p/21"),) in fresh
        # the appends extended one cached answer set per method, and both
        # constants ran on the template's one unfolding
        assert system.cache_stats()["unfolding"]["misses"] == 1
    finally:
        system.sql_backend().close()
        twin.sql_backend().close()
