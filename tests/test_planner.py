"""Unit tests for the cost-based SQL planner (repro.obda.sql.planner).

The planner is an optimizer, never a second source of truth: every test
here checks a planned execution against the naive algebra evaluator on
the same tree, plus the structural claims (index dispatch, semi-joins,
opaque fallback, plan reports) that the equivalence tests alone would
not pin.  No query path runs the planner any more (``perfectref-sql``
runs its parts through the compiled join over the tables); the
benchmark's traced replay still does.  The system-level tests at the
end check the SQL paths, the join among them, against KB mode and the
naive evaluator.
"""

from __future__ import annotations

import pytest

from repro.dllite import ABox, AtomicConcept, Individual, parse_tbox
from repro.dllite.abox import ConceptAssertion, RoleAssertion
from repro.dllite.syntax import AtomicRole
from repro.errors import TimeoutExceeded
from repro.obda.cq_parser import parse_query
from repro.obda.sql import algebra
from repro.obda.sql.algebra import (
    Condition,
    Const,
    Join,
    Projection,
    Rename,
    ResultSet,
    Scan,
    Selection,
    evaluate,
)
from repro.obda.sql.database import Database
from repro.obda.sql.planner import HashJoinNode, OpaqueNode, Planner
from repro.obda.sql.stats import (
    JoinIndex,
    StatisticsCatalog,
    TableStatistics,
    join_key,
)
from repro.obs.metrics import global_metrics
from repro.testkit import naive_sql_answers
from repro.testkit.generators import direct_mapping_system


class CountingBudget:
    """Duck-typed Budget that counts work instead of timing it."""

    def __init__(self):
        self.ticks = 0

    def check(self):
        pass

    def tick(self, stride=None):
        self.ticks += 1


class TickLimit(CountingBudget):
    """Duck-typed Budget that expires on its *limit*-th tick."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def tick(self, stride=None):
        super().tick(stride)
        if self.ticks >= self.limit:
            raise TimeoutExceeded(0.0, 0.0, task="tick-limit")


def index_counts():
    metrics = global_metrics()
    return (
        metrics.counter("obda.sql.index_builds").value,
        metrics.counter("obda.sql.index_extends").value,
    )


def probing_join(plan):
    """The plan's one join that probes a table index."""
    (join,) = [
        node
        for node in plan.nodes()
        if isinstance(node, HashJoinNode) and node.probe is not None
    ]
    return join


@pytest.fixture
def db():
    database = Database("planner-test")
    database.create_table(
        "emp",
        ["id", "dept"],
        [(1, "a"), (2, "a"), (3, "b"), (4, "c")],
    )
    database.create_table(
        "dept",
        ["name", "head"],
        [("a", 1), ("b", 3), ("c", 4), ("d", 4)],
    )
    database.create_table(
        "skill",
        ["eid", "tag"],
        [(1, "ml"), (3, "db"), (3, "ml"), (2, "db"), (4, "ml"), (4, "db")],
    )
    return database


def unfolder_shaped_tree(distinct=True):
    """The shape the unfolder emits: conditions parked in one Selection
    above a condition-less Join of Renamed Scans."""
    join = Join(
        Join(Rename(Scan("emp"), "q0"), Rename(Scan("dept"), "q1"), on=()),
        Rename(Scan("skill"), "q2"),
        on=(),
    )
    selected = Selection(
        join,
        (
            Condition("q0.dept", "q1.name", "="),
            Condition("q0.id", "q2.eid", "="),
            Condition("q2.tag", Const("ml"), "="),
        ),
    )
    return Projection(
        selected, ("q0.id", "q1.head"), names=("x", "y"), distinct=distinct
    )


def assert_same_rows(planned, naive, ordered=False):
    assert planned.columns == naive.columns
    if ordered:
        assert planned.rows == naive.rows
    else:
        assert sorted(map(str, planned.rows)) == sorted(map(str, naive.rows))


def test_planned_tree_matches_naive_exactly(db):
    expr = unfolder_shaped_tree(distinct=False)
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(expr)
    assert not isinstance(plan, OpaqueNode)
    assert_same_rows(
        plan.execute(db, planner.catalog), evaluate(expr, db)
    )


def test_planned_distinct_projection_under_set_semantics(db):
    expr = unfolder_shaped_tree(distinct=True)
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(expr, set_semantics=True)
    planned = plan.execute(db, planner.catalog)
    naive = evaluate(expr, db)
    assert planned.columns == naive.columns
    assert set(planned.rows) == set(naive.rows)


def test_join_conditions_become_hash_joins_not_cross_products(db):
    expr = unfolder_shaped_tree(distinct=True)
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(expr, set_semantics=True)
    joins = [node for node in plan.nodes() if isinstance(node, HashJoinNode)]
    assert joins, "expected hash joins in the plan"
    assert all(join.left_keys for join in joins), "no join should degrade to cross"


def test_equi_join_probes_shared_catalog_index(db):
    catalog = StatisticsCatalog(db)
    planner = Planner(catalog)
    expr = Selection(
        Join(Scan("emp"), Scan("dept"), on=()),
        (Condition("emp.dept", "dept.name", "="),),
    )
    plan = planner.plan(expr)
    probe = probing_join(plan).probe
    builds, extends = index_counts()
    assert_same_rows(plan.execute(db, catalog), evaluate(expr, db))
    index = db.table(probe.table).index(probe.positions)
    # the second execution probes the index the first one built
    assert_same_rows(plan.execute(db, catalog), evaluate(expr, db))
    assert index_counts() == (builds + 1, extends)
    assert db.table(probe.table).index(probe.positions) is index


def test_index_bypassed_when_database_is_not_the_catalogs(db):
    catalog = StatisticsCatalog(db)
    planner = Planner(catalog)
    expr = Selection(
        Join(Scan("emp"), Scan("dept"), on=()),
        (Condition("emp.dept", "dept.name", "="),),
    )
    plan = planner.plan(expr)
    # the probe resolves its table through the database it executes on
    other = Database("shadow")
    other.create_table("emp", ["id", "dept"], [(9, "a")])
    other.create_table("dept", ["name", "head"], [("a", 9)])
    result = plan.execute(other, catalog)
    assert_same_rows(result, evaluate(expr, other))


def test_opaque_fallback_on_unknown_table(db):
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(Scan("no_such_table"))
    assert isinstance(plan, OpaqueNode)


def test_opaque_fallback_preserves_naive_errors(db):
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(Scan("no_such_table"))
    from repro.errors import MappingError

    with pytest.raises(MappingError):
        plan.execute(db, planner.catalog)


def test_semi_join_when_right_columns_unused(db):
    # DISTINCT over q0.id only: the skill factor exists purely to filter.
    join = Join(Rename(Scan("emp"), "q0"), Rename(Scan("skill"), "q1"), on=())
    expr = Projection(
        Selection(join, (Condition("q0.id", "q1.eid", "="),)),
        ("q0.id",),
        names=("x",),
        distinct=True,
    )
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(expr, set_semantics=True)
    joins = [n for n in plan.nodes() if isinstance(n, HashJoinNode)]
    assert any(j.semi for j in joins), "expected a semi-join"
    planned = plan.execute(db, planner.catalog)
    naive = evaluate(expr, db)
    assert set(planned.rows) == set(naive.rows)


def test_exact_mode_restores_naive_column_order(db):
    # join reordering starts from the smallest factor (skill), so without
    # the restore projection the output columns would come out permuted
    expr = Selection(
        Join(
            Join(Scan("emp"), Scan("dept"), on=()),
            Scan("skill"),
            on=(),
        ),
        (
            Condition("emp.dept", "dept.name", "="),
            Condition("emp.id", "skill.eid", "="),
        ),
    )
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(expr)
    assert_same_rows(plan.execute(db, planner.catalog), evaluate(expr, db))


def test_selection_pushdown_below_union(db):
    expr = Selection(
        algebra.UnionAll(
            (
                Projection(Scan("emp"), ("emp.id",), names=("v",)),
                Projection(Scan("skill"), ("skill.eid",), names=("v",)),
            )
        ),
        (Condition("v", Const(3), "="),),
    )
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(expr)
    assert_same_rows(plan.execute(db, planner.catalog), evaluate(expr, db))


def test_plan_render_and_to_dict_report_estimates(db):
    planner = Planner(StatisticsCatalog(db))
    plan = planner.plan(unfolder_shaped_tree())
    observed = {}
    plan.execute(db, planner.catalog, observed=observed)
    text = plan.render(observed)
    assert "est" in text and "actual" in text
    record = plan.to_dict(observed)
    assert record["op"] and "estimated_rows" in record
    assert "actual_rows" in record


def test_statistics_track_generation(db):
    catalog = StatisticsCatalog(db)
    before = catalog.statistics("emp")
    assert before.row_count == 4
    assert before.distinct("dept") == 3
    db.table("emp").insert((5, "d"))
    after = catalog.statistics("emp")
    assert after.row_count == 5
    assert after.distinct("dept") == 4


def test_join_key_string_normalizes():
    assert join_key((1, "a")) == ("1", "a")
    assert join_key(("1", "a")) == ("1", "a")


def test_join_key_is_the_string_form_identity():
    # 1, 1.0 and True are == in Python but render different IRIs: three keys
    assert len({join_key((1,)), join_key((1.0,)), join_key((True,))}) == 3
    # "1" and 1 render the same IRI: one key
    assert join_key(("1",)) == join_key((1,))
    assert join_key(("1",)) != join_key((1.0,))


MIXED_POOL = [
    "1", "1.0", "a", "True", "nan", "inf", "2", "0",
    1, 1.0, 2, 2.5, -1, -1.0, 0, True, False,
    float("nan"), float("inf"), 10**20, 1e20,
]


def test_join_key_agrees_with_selection_equality_on_mixed_pool():
    # The bucketing invariant JoinIndex relies on: two values share a
    # bucket key iff the evaluator's selection accepts the pair — and
    # that relation is transitive, so one key per value suffices.
    pairs = ResultSet(("a", "b"), [])
    accepts = algebra._compile_conditions((Condition("a", "b", "="),), pairs)
    for a in MIXED_POOL:
        for b in MIXED_POOL:
            share = join_key((a,)) == join_key((b,))
            assert share == accepts((a, b)), (a, b)
            assert share == (str(a) == str(b)), (a, b)


def test_join_index_probe_matches_string_forms_in_build_order():
    index = JoinIndex()
    for row in [(1.0, "x"), ("1", "y"), (1, "z"), (2, "w")]:
        index.add([row[0]], row)
    assert index.probe([1]) == [("1", "y"), (1, "z")]
    assert index.probe(["1"]) == index.probe([1])
    assert index.probe([1.0]) == [(1.0, "x")]
    assert index.probe([True]) == []
    assert index.probe([3]) == []
    assert index.contains([2]) and not index.contains([3])


def test_shared_index_rebuilt_after_insert(db):
    emp = db.table("emp")
    index = emp.index((1,))
    assert ("d",) not in index
    emp.insert((5, "d"))
    # a stale-generation entry must be *replaced*, not kept via setdefault
    grown = emp.index((1,))
    assert grown[("d",)] == [(5, "d")] and ("d",) not in index
    assert emp.index((1,)) is grown
    # rows rewritten out of band, then an insert: the last consumed row
    # is gone, so the index is rebuilt rather than extended
    builds, extends = index_counts()
    emp.rows[4:] = [(6, "a")]
    emp.insert((7, "d"))
    assert emp.index((1,))[("d",)] == [(7, "d")]
    assert index_counts() == (builds + 1, extends)


def test_mixed_type_joins_match_filter_semantics_naive_and_planned():
    # equal() compares string forms; the hash paths must match it
    # bucket-for-bucket: 1 joins "1" (same string form) but not 1.0 or
    # True (== in Python, different string forms).
    database = Database("mixed")
    database.create_table("l", ["k"], [(1,), (2,), ("3",), (True,)])
    database.create_table("r", ["k"], [(1.0,), ("1",), (1,), (3,), (False,)])
    expr = Selection(
        Join(Scan("l"), Scan("r"), on=()),
        (Condition("l.k", "r.k", "="),),
    )
    expected = sorted([("1", "'1'"), ("1", "1"), ("'3'", "3")])
    naive = evaluate(expr, database)
    assert sorted(tuple(map(repr, row)) for row in naive.rows) == expected
    planner = Planner(StatisticsCatalog(database))
    plan = planner.plan(expr)
    planned = plan.execute(database, planner.catalog)
    assert sorted(tuple(map(repr, row)) for row in planned.rows) == expected


def test_probe_through_distinct_filtered_chain_is_exact(db):
    # Rename(Project DISTINCT(Filter(Scan))): skill holds (3, "ml") once
    # and (4, "ml") twice after the insert, so the chain deduplicates
    # within a probe's bucket; the exact-mode bag must match the naive one
    db.table("skill").insert((4, "ml"))
    db.table("skill").insert((4, "db"))
    chain = Rename(
        Projection(
            Selection(Scan("skill"), (Condition("skill.tag", Const("ml"), "="),)),
            ("skill.eid", "skill.tag"),
            distinct=True,
        ),
        "s",
    )
    expr = Selection(
        Join(Rename(Scan("emp"), "e"), chain, on=()),
        (Condition("e.id", "s.eid", "="),),
    )
    plan = Planner(StatisticsCatalog(db)).plan(expr)
    assert probing_join(plan).probe.table == "skill"
    assert_same_rows(plan.execute(db, None), evaluate(expr, db))
    assert len(plan.execute(db, None).rows) == 3


def test_semi_join_probe_through_filtered_chain(db):
    # ids of dept-a employees with an "ml" skill: emp 2 has only a "db"
    # skill row, which the chain's filter must reject
    chain = Rename(
        Selection(Scan("skill"), (Condition("skill.tag", Const("ml"), "="),)),
        "s",
    )
    expr = Projection(
        Selection(
            Join(Rename(Scan("emp"), "e"), chain, on=()),
            (
                Condition("e.id", "s.eid", "="),
                Condition("e.dept", Const("a"), "="),
            ),
        ),
        ("e.id",),
        names=("x",),
        distinct=True,
    )
    plan = Planner(StatisticsCatalog(db)).plan(expr, set_semantics=True)
    join = probing_join(plan)
    assert join.semi and join.probe.table == "skill"
    planned = plan.execute(db, None)
    assert set(planned.rows) == set(evaluate(expr, db).rows) == {(1,)}


def test_probe_keys_follow_string_forms_through_a_chain():
    # 1 and "1" share a bucket, 1.0 and True do not; the DISTINCT chain
    # keeps 1 and "1" apart (== differs), as ResultSet.distinct does
    database = Database("mixed-probe")
    database.create_table("l", ["k"], [(1,), ("1",), (1.0,), (True,), (2,)])
    database.create_table(
        "r", ["k", "v"], [(1, "a"), ("1", "b"), (1, "a"), (1.0, "c"), (True, "d")]
    )
    chain = Rename(Projection(Scan("r"), ("r.k", "r.v"), distinct=True), "s")
    expr = Selection(
        Join(Rename(Scan("l"), "p"), chain, on=()),
        (Condition("p.k", "s.k", "="),),
    )
    plan = Planner(StatisticsCatalog(database)).plan(expr)
    assert probing_join(plan).probe.table == "r"
    planned = plan.execute(database, None)
    naive = evaluate(expr, database)
    assert sorted(map(repr, planned.rows)) == sorted(map(repr, naive.rows))
    assert len(naive.rows) == 6


def test_append_between_executions_extends_the_probed_index(db):
    expr = Selection(
        Join(Rename(Scan("emp"), "e"), Rename(Scan("skill"), "s"), on=()),
        (Condition("e.id", "s.eid", "="),),
    )
    plan = Planner(StatisticsCatalog(db)).plan(expr)
    probe = probing_join(plan).probe
    plan.execute(db, None)
    builds, extends = index_counts()
    db.table(probe.table).insert(
        (4, "go") if probe.table == "skill" else (4, "d")
    )
    assert_same_rows(plan.execute(db, None), evaluate(expr, db))
    assert index_counts() == (builds, extends + 1)


def test_budget_expiring_mid_build_installs_no_index(db):
    expr = Selection(
        Join(Rename(Scan("emp"), "e"), Rename(Scan("skill"), "s"), on=()),
        (Condition("e.id", "s.eid", "="),),
    )
    plan = Planner(StatisticsCatalog(db)).plan(expr)
    table = db.table(probing_join(plan).probe.table)
    builds, extends = index_counts()
    budget = TickLimit(2)
    with pytest.raises(TimeoutExceeded):
        plan.execute(db, None, budget=budget)
    assert budget.ticks == 2 < len(table.rows)
    assert table._indexes == {} and index_counts() == (builds, extends)
    assert_same_rows(plan.execute(db, None), evaluate(expr, db))
    assert index_counts() == (builds + 1, extends)


def test_statistics_selectivity_bounds():
    stats = TableStatistics("t", 0, ())
    assert stats.selectivity("x") == 0.0


# ---------------------------------------------------------------------------
# the naive evaluator's hash join (the satellite fix in algebra.evaluate)


def test_naive_join_is_hash_partitioned_not_quadratic():
    database = Database("big")
    n = 1000
    database.create_table("l", ["k", "a"], [(i, f"a{i}") for i in range(n)])
    database.create_table("r", ["k", "b"], [(i, f"b{i}") for i in range(n)])
    expr = Selection(
        Join(Scan("l"), Scan("r"), on=()),
        (Condition("l.k", "r.k", "="),),
    )
    budget = CountingBudget()
    result = evaluate(expr, database, budget=budget)
    assert len(result.rows) == n
    # a cross product would tick ~n^2 = 1,000,000 times; the hash join
    # ticks per build row and per match — well under 50k in total
    assert budget.ticks < 50_000, f"join did {budget.ticks} ticks"


def test_naive_join_residual_and_side_filters():
    database = Database("mix")
    database.create_table("l", ["k", "a"], [(1, 10), (2, 20), (3, 5)])
    database.create_table("r", ["k", "b"], [(1, 1), (2, 30), (3, 7)])
    expr = Selection(
        Join(Scan("l"), Scan("r"), on=()),
        (
            Condition("l.k", "r.k", "="),
            Condition("l.a", "r.b", "!="),
            Condition("l.a", Const(5), "!="),
        ),
    )
    result = evaluate(expr, database)
    assert sorted(result.rows) == [(1, 10, 1, 1), (2, 20, 2, 30)]


def test_naive_join_on_pairs_still_work():
    database = Database("onpairs")
    database.create_table("l", ["k"], [(1,), (2,)])
    database.create_table("r", ["k"], [(2,), (3,)])
    result = evaluate(Join(Scan("l"), Scan("r"), on=(("l.k", "r.k"),)), database)
    assert result.rows == [((2,) + (2,))]


# ---------------------------------------------------------------------------
# end to end through OBDASystem


def make_system():
    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa exists teaches
        """,
        name="planner-e2e",
    )
    abox = ABox()
    for i in range(6):
        abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual(f"p{i}")))
    for i in range(3):
        abox.add(
            RoleAssertion(
                AtomicRole("teaches"), Individual(f"p{i}"), Individual(f"c{i}")
            )
        )
    return tbox, abox


def test_system_planned_answers_match_naive_and_kb():
    from repro.obda.system import OBDASystem

    tbox, abox = make_system()
    planned = direct_mapping_system(tbox, abox)
    naive = direct_mapping_system(tbox, abox)
    kb = OBDASystem(tbox, abox=abox)
    for text in (
        "q(x) :- Teacher(x)",
        "q(x, y) :- Teacher(x), teaches(x, y)",
        "q() :- teaches(x, y)",
    ):
        query = parse_query(text)
        a = planned.certain_answers(query, method="perfectref-sql")
        b = naive_sql_answers(naive, query)
        c = kb.certain_answers(query, method="perfectref")
        assert a == b == c


def test_explain_carries_plan():
    # The SQL join's plan is its join spans under sql-eval: the table
    # atoms in probe order, their key positions and estimated fan-outs.
    from repro.obs.explain import explain_records, run_explain, render_explain

    tbox, _ = make_system()
    report = run_explain(tbox, query="q(x) :- Teacher(x)", seed=3)
    assert report.ok
    (sql_eval,) = [span for span in report.tracer.spans if span.name == "sql-eval"]
    joins = [span for span in sql_eval.children if span.name == "join"]
    assert joins
    for span in joins:
        atoms = span.attributes["atoms"]
        assert atoms and all(atom.startswith("t_") for atom in atoms)
        assert len(span.attributes["keys"]) == len(span.attributes["fan_outs"])
    assert sum(span.attributes["answers"] for span in joins) >= report.answers
    assert "join" in render_explain(report)
    records = explain_records(report)
    assert "plan" not in records[0]
    assert sum(
        record.get("name") == "join" and record.get("parent") == sql_eval.span_id
        for record in records
    ) == len(joins)


def test_planned_path_sees_inserts_through_shared_index():
    # The reviewer's reproduction: answer, insert, answer again — the
    # second planned execution must probe a rebuilt shared index, not a
    # stale pre-mutation one.
    tbox, abox = make_system()
    system = direct_mapping_system(tbox, abox)
    query = parse_query("q(x, y) :- Teacher(x), teaches(x, y)")
    first = system.certain_answers(query, method="perfectref-sql")
    assert first == {
        (Individual(f"p{i}"), Individual(f"c{i}")) for i in range(3)
    }
    system.database.table("t_Professor").insert(("p9",))
    system.database.table("t_teaches").insert(("p9", "c9"))
    second = system.certain_answers(query, method="perfectref-sql")
    assert second == first | {(Individual("p9"), Individual("c9"))}
    # and again, to pin that the rebuilt index was actually installed
    assert system.certain_answers(query, method="perfectref-sql") == second


def _prune_scenario():
    """Professor ⊑ Teacher, and every professor is also asserted a
    teacher in the data: extent(t_Professor) ⊆ extent(t_Teacher), so the
    Professor disjunct of the rewriting adds no answer."""
    tbox = parse_tbox("Professor isa Teacher", name="prune")
    abox = ABox()
    for i in range(4):
        abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual(f"p{i}")))
        abox.add(ConceptAssertion(AtomicConcept("Teacher"), Individual(f"p{i}")))
    abox.add(ConceptAssertion(AtomicConcept("Teacher"), Individual("t9")))
    return tbox, abox


def _method(method):
    def answer(system, query, **options):
        return system.certain_answers(query, method=method, **options)

    return answer


#: the three SQL executors, as ``answer(system, query, **options)``: the
#: join's probe plan over the tables, the naive evaluator and sqlite
SQL_PATHS = {
    "planned-sql": _method("perfectref-sql"),
    "naive-sql": naive_sql_answers,
    "sqlite": _method("perfectref-sqlite"),
}


def test_constraint_pruning_drops_subsumed_disjunct():
    # The scenario extensional constraint pruning once shortened: every
    # SQL executor runs the whole rewriting and answers as the KB does.
    from repro.obda.system import OBDASystem

    tbox, abox = _prune_scenario()
    kb = OBDASystem(tbox, abox=abox)
    for query in ("q(x) :- Teacher(x)", "q() :- Professor(x)"):
        expected = kb.certain_answers(query, method="perfectref")
        for answer in SQL_PATHS.values():
            system = direct_mapping_system(tbox, abox)
            assert answer(system, query) == expected
    assert len(kb.certain_answers("q(x) :- Teacher(x)")) == 5


@pytest.mark.parametrize("path", sorted(SQL_PATHS))
def test_sql_paths_pull_no_virtual_extent(path):
    # The SQL paths read the sources through the unfolding only; without
    # a consistency check nothing materializes a mapped extent.
    system = direct_mapping_system(*_prune_scenario())
    pulls = global_metrics().counter("obda.extents.pulls")
    before = pulls.value
    answers = SQL_PATHS[path](system, "q(x) :- Teacher(x)", check_consistency=False)
    assert len(answers) == 5
    assert pulls.value == before
