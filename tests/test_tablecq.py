"""The SQL join: algebra trees as conjunctive queries over the tables.

Unfolded parts are converted into table CQs (:mod:`repro.obda.sql.tablecq`)
and run through the compiled join over the tables' hash indexes
(:func:`~repro.obda.evaluation.evaluate_table_cqs`).  The algebra
evaluator is the reference: the join's rows must be the evaluator's, as
sets under ``(join_key(row), row)``, so ``1``, ``"1"``, ``1.0`` and
``True`` stay four cells, and sqlite's answers over the SQL it renders
from the same table CQs must be the evaluator's answers.  The random
algebra trees here also serve the planner's properties.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.dllite import AtomicConcept, Individual, parse_tbox
from repro.errors import MappingError, PermanentSourceError, TimeoutExceeded
from repro.obda.evaluation import evaluate_table_cqs
from repro.obda.mapping import (
    IriTemplate,
    MappingAssertion,
    MappingCollection,
    TargetAtom,
)
from repro.obda.rewriting import unfolding
from repro.obda.rewriting.unfolding import UnfoldedQuery, unfold
from repro.obda.sql import tablecq
from repro.obda.sql.algebra import (
    Condition,
    Const,
    Join,
    Projection,
    Rename,
    Scan,
    Selection,
    UnionAll,
    evaluate,
)
from repro.obda.sql.backends import SqliteBackend
from repro.obda.sql.database import Database
from repro.obda.sql.sqlparser import parse_sql
from repro.obda.sql.table import join_key
from repro.obda.sql.tablecq import table_cqs
from repro.obda.system import OBDASystem
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import (
    Budget,
    FaultInjector,
    FaultSpec,
    FaultyDatabase,
    RetryPolicy,
)

#: cells sharing a string form (1 and "1") or equal under == while
#: rendering apart (1, 1.0 and True)
MIXED_CELLS = (0, 1, "1", 1.0, True, 2, "2")

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cell(rng: random.Random, cells):
    """The integers 0-5, or one of *cells* when given."""
    return rng.randint(0, 5) if cells is None else rng.choice(cells)


def random_database(rng: random.Random, cells=None) -> Database:
    database = Database("prop")
    for index in range(rng.randint(2, 4)):
        width = rng.randint(1, 3)
        columns = [f"c{j}" for j in range(width)]
        rows = [
            tuple(_cell(rng, cells) for _ in range(width))
            for _ in range(rng.randint(0, 12))
        ]
        database.create_table(f"t{index}", columns, rows)
    return database


def random_source(rng: random.Random, table, cells=None, unions=False):
    """A mapping-source-shaped factor body: a scan, sometimes filtered by
    a constant, sometimes projected (DISTINCT or not), and with *unions*
    sometimes united with a filtered scan of the same columns.  Returns
    it with its output column names."""
    source = Scan(table.name)
    columns = [f"{table.name}.{column}" for column in table.columns]
    if rng.random() < 0.3:
        source = Selection(
            source, (Condition(rng.choice(columns), Const(_cell(rng, cells)), "="),)
        )
    if rng.random() < 0.5:
        kept = rng.sample(columns, rng.randint(1, len(columns)))
        source = Projection(source, tuple(kept), distinct=rng.random() < 0.7)
        columns = kept
    if unions and rng.random() < 0.4:
        other = Selection(
            Scan(table.name),
            (Condition(rng.choice(columns), Const(_cell(rng, cells)), "!="),),
        )
        source = UnionAll((source, Projection(other, tuple(columns), distinct=False)))
    return source, [column.split(".")[1] for column in columns]


def random_tree(rng: random.Random, database: Database, cells=None, unions=False):
    """A random unfolder-shaped tree: Selection over a Join of Renames,
    over sources of :func:`random_source`; constants are drawn like the
    cells of :func:`random_database`."""
    names = sorted(table.name for table in database.tables())
    count = rng.randint(1, min(3, len(names)))
    picked = [rng.choice(names) for _ in range(count)]
    sources = []
    columns = []
    for i, name in enumerate(picked):
        source, outputs = random_source(rng, database.table(name), cells, unions)
        sources.append(Rename(source, f"q{i}"))
        columns += [f"q{i}.{output}" for output in outputs]
    tree = sources[0]
    for source in sources[1:]:
        tree = Join(tree, source, on=())
    conditions = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        left = rng.choice(columns)
        if kind < 0.6:
            conditions.append(Condition(left, rng.choice(columns), "="))
        elif kind < 0.8:
            conditions.append(Condition(left, Const(_cell(rng, cells)), "="))
        else:
            conditions.append(Condition(left, rng.choice(columns), "!="))
    if conditions:
        tree = Selection(tree, tuple(conditions))
    if rng.random() < 0.7:
        width = rng.randint(1, min(3, len(columns)))
        chosen = rng.sample(columns, width)
        tree = Projection(
            tree,
            tuple(chosen),
            names=tuple(f"o{i}" for i in range(width)),
            distinct=rng.random() < 0.5,
        )
    return tree


def _identities(rows):
    return {(join_key(row), row) for row in rows}


def _joined(expression, database, outputs=True):
    """The join's rows of *expression* over *database*."""
    _, cqs = table_cqs(expression, database.table, outputs=outputs)
    tables = {table.name: table for table in database.tables()}
    return evaluate_table_cqs(cqs, tables)


@SETTINGS
@given(st.integers(0, 10_000))
def test_join_of_random_trees_equals_the_evaluator(seed):
    rng = random.Random(f"tablecq-prop:{seed}")
    database = random_database(rng, cells=MIXED_CELLS)
    tree = random_tree(rng, database, cells=MIXED_CELLS, unions=True)
    result = evaluate(tree, database)
    columns, _ = table_cqs(tree, database.table)
    assert columns == result.columns
    assert _joined(tree, database) == _identities(result.rows)
    # without outputs the queries only ask whether there is a row
    assert bool(_joined(tree, database, outputs=False)) == bool(result.rows)
    # sqlite renders the same queries: the tree as an unfolding of one
    # part that answers each output column raw, and as a boolean part
    recipes = tuple(unfolding._VarSource(None, (column,)) for column in columns)
    backend = SqliteBackend(database)
    try:
        for part in ((tree, recipes), (tree, ())):
            unfolded = UnfoldedQuery([part], len(part[1]))
            assert backend.execute_unfolded(unfolded) == unfolded.execute(database)
    finally:
        backend.close()


def _cells_database():
    database = Database("cells")
    database.create_table(
        "t", ["id", "flag"], [(1, 1), (2, "1"), (3, 1.0), (4, True), (5, 2)]
    )
    database.create_table("u", ["ref", "flag"], [("1", "x"), (1.0, "y"), (9, "z")])
    return database


def test_a_column_fixed_by_a_constant_outputs_the_raw_cells():
    database = _cells_database()
    tree = parse_sql("SELECT flag FROM t WHERE flag = 1")
    assert _joined(tree, database) == _identities([(1,), ("1",)])


def test_a_joined_column_outputs_its_own_cell():
    # t.flag = u.ref joins 1 and "1" by string form; each side outputs
    # its own cell
    database = _cells_database()
    tree = parse_sql("SELECT t.flag, u.ref FROM t JOIN u ON t.flag = u.ref")
    rows = evaluate(tree, database).rows
    assert _joined(tree, database) == _identities(rows)
    assert set(rows) == {(1, "1"), ("1", "1"), (1.0, 1.0)}


def test_a_union_source_becomes_one_cq_per_branch():
    database = _cells_database()
    tree = parse_sql(
        "SELECT id FROM t WHERE flag = 2 UNION SELECT ref FROM u WHERE flag = 'x'"
    )
    columns, cqs = table_cqs(tree, database.table)
    assert columns == ("id",)
    assert [cq.tables for cq in cqs] == [("t",), ("u",)]
    assert _joined(tree, database) == _identities([(5,), ("1",)])


def test_a_join_of_unions_is_the_product_of_their_branches():
    database = _cells_database()
    left = parse_sql("SELECT id FROM t UNION SELECT ref FROM u")
    tree = Selection(
        Join(Rename(left, "a"), Rename(left, "b"), on=()),
        (Condition("a.id", "b.id", "="),),
    )
    _, cqs = table_cqs(tree, database.table)
    assert len(cqs) == 4
    assert _joined(tree, database) == _identities(evaluate(tree, database).rows)


def test_unsatisfiable_branches_are_dropped():
    database = _cells_database()
    two_constants = parse_sql("SELECT id FROM t WHERE flag = 1 AND flag = 2")
    assert table_cqs(two_constants, database.table)[1] == []
    one_class = parse_sql("SELECT t.id FROM t, u WHERE t.flag = u.ref AND t.flag != u.ref")
    assert table_cqs(one_class, database.table)[1] == []
    # 1 and 1.0 are two string forms: flag = 1 and flag != 1.0 holds
    kept = parse_sql("SELECT id FROM t WHERE flag = 1 AND flag != 1.0")
    assert _joined(kept, database) == _identities([(1,), (2,)])


def test_inequalities_between_columns_are_checked_on_the_join():
    database = _cells_database()
    tree = parse_sql("SELECT t.id, u.ref FROM t, u WHERE t.id != u.ref")
    assert _joined(tree, database) == _identities(evaluate(tree, database).rows)


@pytest.mark.parametrize(
    "tree",
    [
        Projection(Scan("t"), ("nope",)),
        Projection(Join(Scan("t"), Scan("u"), on=()), ("flag",)),
        Selection(Scan("t"), (Condition("id", "u.ref", "="),)),
        Join(Scan("t"), Scan("u"), on=(("t.id", "missing"),)),
        Projection(Scan("missing"), ("id",)),
    ],
    ids=["no-column", "ambiguous", "other-table", "join-key", "no-table"],
)
def test_columns_resolve_and_fail_as_the_evaluator(tree):
    database = _cells_database()
    with pytest.raises(MappingError) as expected:
        evaluate(tree, database)
    with pytest.raises(MappingError) as converted:
        table_cqs(tree, database.table)
    assert str(converted.value) == str(expected.value)


def test_union_branches_of_different_widths_fail_as_the_evaluator():
    database = _cells_database()
    tree = parse_sql("SELECT id, flag FROM t UNION SELECT ref FROM u")
    with pytest.raises(MappingError, match="different arities"):
        table_cqs(tree, database.table)


class _CountingBudget:
    """Duck-typed Budget that counts polls instead of timing them."""

    def __init__(self):
        self.ticks = 0

    def check(self):
        pass

    def tick(self, stride=None):
        self.ticks += 1


#: a UNION source of 40 branches over ``t``
FORTY_BRANCHES = " UNION ".join(f"SELECT id FROM t WHERE flag = {i}" for i in range(40))


def test_a_join_of_union_sources_times_out_while_it_converts():
    # two sources of 40 branches join into 1,600 branches, more than one
    # tick stride, so an expired budget stops the conversion itself
    database = _cells_database()
    source = parse_sql(FORTY_BRANCHES)
    tree = Join(Rename(source, "a"), Rename(source, "b"), on=(("a.id", "b.id"),))
    assert len(table_cqs(tree, database.table)[1]) == 40 * 40
    with pytest.raises(TimeoutExceeded):
        table_cqs(tree, database.table, budget=Budget(budget_s=0.0, task="convert"))


def test_an_unfolding_ticks_the_budget_while_it_converts():
    mappings = MappingCollection(
        [
            MappingAssertion(
                FORTY_BRANCHES,
                [TargetAtom(AtomicConcept(name), (IriTemplate("p/{id}"),))],
            )
            for name in ("Flagged", "Marked")
        ]
    )
    database = _cells_database()
    unfolded = unfold(_ucq("q(x) :- Flagged(x), Marked(x)"), mappings)
    converting, cached = _CountingBudget(), _CountingBudget()
    assert unfolded.join(database, budget=converting) == unfolded.join(
        database, budget=cached
    )
    # the first join built and finished the 1,600 branches of the part
    assert converting.ticks - cached.ticks >= 2 * 40 * 40


def test_the_join_ticks_the_budget_once_per_binding():
    database = _cells_database()
    _, cqs = table_cqs(parse_sql("SELECT id FROM t"), database.table)
    budget = _CountingBudget()
    evaluate_table_cqs(cqs, {"t": database.table("t")}, budget)
    # the root, then one binding per row of t (a scan builds no index)
    assert budget.ticks == 1 + len(database.table("t"))


# -- UnfoldedQuery.join ----------------------------------------------------------


def _staff_mappings():
    return MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("p/{id}"),))],
            )
        ]
    )


def _staff(rows=((1, "prof"), (2, "lect"), (1.0, "prof")), swapped=False):
    """``staff(id, role)`` over *rows*, or ``staff(role, id)`` swapped."""
    database = Database("staff")
    if swapped:
        database.create_table("staff", ["role", "id"], [row[::-1] for row in rows])
    else:
        database.create_table("staff", ["id", "role"], list(rows))
    return database


def test_answers_render_one_iri_per_identity():
    # 1 and 1.0 are equal under ==, but render p/1 and p/1.0
    database = _staff()
    unfolded = unfold(_ucq("q(x) :- Professor(x)"), _staff_mappings())
    assert unfolded.join(database) == unfolded.execute(database) == {
        (Individual("p/1"),),
        (Individual("p/1.0"),),
    }


def _ucq(text):
    from repro.obda.cq_parser import parse_query

    return parse_query(text)


def test_a_conversion_serves_only_tables_of_its_columns(monkeypatch):
    calls = []
    convert = unfolding.table_cqs

    def counting(*args, **kwargs):
        calls.append(args[0])
        return convert(*args, **kwargs)

    monkeypatch.setattr(unfolding, "table_cqs", counting)
    unfolded = unfold(_ucq("q(x) :- Professor(x)"), _staff_mappings())
    first = _staff()
    swapped = _staff(swapped=True)
    expected = {(Individual("p/1"),), (Individual("p/1.0"),)}
    assert unfolded.join(first) == expected
    assert unfolded.join(first) == expected
    assert len(calls) == 1
    # the same table name with its columns in another order: converted
    # again, not read through the first conversion's positions
    assert unfolded.join(swapped) == expected
    assert len(calls) == 2
    assert unfolded.join(first) == expected
    assert len(calls) == 2


def test_each_mapping_source_is_converted_once_per_collection(monkeypatch):
    calls = []
    convert = tablecq._convert

    def counting(expression, *args):
        calls.append(expression)
        return convert(expression, *args)

    monkeypatch.setattr(tablecq, "_convert", counting)
    mappings = _staff_mappings()
    (source,) = [assertion.source for assertion in mappings]
    first = _staff()
    for query in ("q(x) :- Professor(x)", "q() :- Professor(x)"):
        assert unfold(_ucq(query), mappings).join(first)
    assert sum(expression is source for expression in calls) == 1
    # a table with its columns in another order: the source is converted
    # again, once
    for query in ("q(x) :- Professor(x)", "q() :- Professor(x)"):
        assert unfold(_ucq(query), mappings).join(_staff(swapped=True))
    assert sum(expression is source for expression in calls) == 2


def test_an_unfolding_cache_hit_converts_nothing(monkeypatch):
    calls = []
    convert = unfolding.table_cqs

    def counting(*args, **kwargs):
        calls.append(args[0])
        return convert(*args, **kwargs)

    monkeypatch.setattr(unfolding, "table_cqs", counting)
    database = _staff()
    system = OBDASystem(parse_tbox("Professor isa Teacher"), _staff_mappings(), database)
    assert len(system.certain_answers("q(x) :- Teacher(x)", method="perfectref-sql")) == 2
    converted = len(calls)
    database.table("staff").insert((3, "prof"))  # an answer-cache miss
    assert len(system.certain_answers("q(x) :- Teacher(x)", method="perfectref-sql")) == 3
    assert system.cache_stats()["unfolding"]["hits"] == 1
    assert len(calls) == converted


def test_tables_are_looked_up_through_the_executing_database():
    unfolded = unfold(_ucq("q(x) :- Professor(x)"), _staff_mappings())
    down = FaultyDatabase(_staff(), FaultInjector(FaultSpec(permanent_after=0)))
    with pytest.raises(PermanentSourceError):
        unfolded.join(down)
    injector = FaultInjector(FaultSpec(transient_rate=0.5, seed=3))
    flaky = FaultyDatabase(_staff(), injector)
    retrying = flaky.with_retry(RetryPolicy(max_attempts=20, base_delay_s=0.0, seed=3))
    for _ in range(5):
        assert unfolded.join(retrying) == unfolded.execute(_staff())
    assert injector.transients_injected > 0


def test_the_join_spans_show_the_probe_order():
    database = Database("campus")
    database.create_table("staff", ["id", "role"], [(i, "prof") for i in range(6)])
    database.create_table("teaching", ["sid", "course"], [(1, "c1"), (2, "c2")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("p/{id}"),))],
            ),
            MappingAssertion(
                "SELECT sid FROM teaching",
                [TargetAtom(AtomicConcept("Teaching"), (IriTemplate("p/{sid}"),))],
            ),
        ]
    )
    unfolded = unfold(_ucq("q(x) :- Professor(x), Teaching(x)"), mappings)
    tracer = Tracer("sql")
    with use_tracer(tracer):
        answers = unfolded.join(database)
    assert answers == unfolded.execute(database)
    (span,) = [span for span in tracer.spans if span.name == "join"]
    # teaching (2 rows) is scanned, then staff probed on (id, role)
    assert span.attributes["atoms"] == ["teaching(x0, _)", "staff(x0, 'prof')"]
    assert span.attributes["keys"] == [[], [0, 1]]
    assert span.attributes["answers"] == 2


def test_a_boolean_part_stops_at_its_first_row():
    database = _staff(rows=[(i, "prof") for i in range(50)])
    unfolded = unfold(_ucq("q() :- Professor(x)"), _staff_mappings())
    assert unfolded.join(database) == {()}  # builds the index on role
    budget = _CountingBudget()
    assert unfolded.join(database, budget=budget) == {()}
    # the root, one binding and the one answer read: no walk of 50 rows
    assert budget.ticks == 3


def test_an_unfolded_query_built_by_hand_joins_like_it_executes():
    database = _cells_database()
    expression = Projection(
        Selection(
            Join(Rename(Scan("t"), "m0"), Rename(Scan("u"), "m1"), on=()),
            (Condition("m0.flag", "m1.ref", "="), Condition("m1.flag", Const("x"), "!=")),
        ),
        ("m0.id", "m1.flag"),
        ("c0", "c1"),
    )
    recipes = (
        unfolding._VarSource(IriTemplate("p/{id}"), ("c0",)),
        unfolding._VarSource(None, ("c1",)),
    )
    unfolded = UnfoldedQuery([(expression, recipes)], 2)
    assert unfolded.join(database) == unfolded.execute(database)
    assert unfolded.join(database)
