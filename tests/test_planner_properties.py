"""Property-based tests for the cost-based SQL planner.

Three invariants, each over randomized inputs:

* **plan equivalence** — selection pushdown, join reordering, factor
  pruning and semi-joins must preserve ResultSet semantics: a planned
  execution of a random algebra tree equals the naive evaluator's, up
  to row order (and exactly, including column order, in exact mode);
* **statistics invariance** — table statistics are a function of the
  row *set*, so any permutation of the rows yields identical
  statistics;
* **pruning soundness** — every disjunct dropped by constraint pruning
  is witnessed by a kept disjunct that weakening-maps into it, and the
  pruned union has exactly the original's certain answers over the raw
  extents.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.obda.constraints import (
    ExtensionalConstraints,
    prune_ucq_with_constraints,
    weakening_homomorphism_exists,
)
from repro.obda.evaluation import MappingExtents, evaluate_ucq
from repro.obda.queries import UnionQuery
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
from repro.obda.sql.database import Database
from repro.obda.sql.planner import Planner
from repro.obda.sql.stats import StatisticsCatalog
from repro.testkit.generators import (
    FuzzProfile,
    direct_mapping_system,
    random_abox,
    random_queries,
    random_tiny_tbox,
)

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


@SETTINGS
@given(st.integers(0, 10_000))
def test_planned_execution_equals_naive(seed):
    rng = random.Random(f"planner-prop:{seed}")
    database = random_database(rng)
    tree = random_tree(rng, database)
    naive = evaluate(tree, database)
    planner = Planner(StatisticsCatalog(database))
    exact = planner.plan(tree).execute(database, planner.catalog)
    assert exact.columns == naive.columns
    assert sorted(map(str, exact.rows)) == sorted(map(str, naive.rows))


@SETTINGS
@given(st.integers(0, 10_000))
def test_planned_set_semantics_equals_naive_sets(seed):
    rng = random.Random(f"planner-prop-set:{seed}")
    database = random_database(rng)
    tree = random_tree(rng, database)
    naive = evaluate(tree, database)
    planner = Planner(StatisticsCatalog(database))
    planned = planner.plan(tree, set_semantics=True).execute(
        database, planner.catalog
    )
    # under set semantics only the row set is promised — and only when the
    # planner actually engaged it (root DISTINCT); otherwise bag equality
    assert set(planned.rows) == set(naive.rows)
    if not (isinstance(tree, Projection) and tree.distinct):
        assert sorted(map(str, planned.rows)) == sorted(map(str, naive.rows))


@SETTINGS
@given(st.integers(0, 10_000))
def test_statistics_invariant_under_row_permutation(seed):
    rng = random.Random(f"stats-prop:{seed}")
    width = rng.randint(1, 3)
    rows = [
        tuple(rng.randint(0, 4) for _ in range(width))
        for _ in range(rng.randint(0, 20))
    ]
    columns = [f"c{j}" for j in range(width)]
    original = Database("orig")
    original.create_table("t", columns, rows)
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    shuffled = Database("shuf")
    shuffled.create_table("t", columns, shuffled_rows)
    a = StatisticsCatalog(original).statistics("t")
    b = StatisticsCatalog(shuffled).statistics("t")
    assert a.as_dict() == b.as_dict()


@SETTINGS
@given(st.integers(0, 10_000))
def test_pruned_disjuncts_are_always_subsumed(seed):
    rng = random.Random(f"prune-prop:{seed}")
    profile = FuzzProfile()
    tbox = random_tiny_tbox(rng, profile)
    abox = random_abox(rng, tbox, profile)
    queries = random_queries(rng, tbox, profile)
    if not queries:
        return
    # merge the generated single-disjunct queries into one UCQ so the
    # pruner has real work (all share answer variable x / arity 1)
    disjuncts = [d for q in queries for d in q.disjuncts]
    ucq = UnionQuery(disjuncts, name="merged")
    system = direct_mapping_system(tbox, abox)
    extents = MappingExtents(system.mappings, system.database)
    constraints = ExtensionalConstraints(extents)
    inclusions = constraints.relevant_inclusions(ucq)
    pruned = prune_ucq_with_constraints(ucq, inclusions)
    assert pruned.after <= pruned.before
    assert pruned.ucq.disjuncts, "pruning must never empty the union"
    kept = set(pruned.ucq.disjuncts)
    for disjunct in set(ucq.disjuncts) - kept:
        assert any(
            weakening_homomorphism_exists(keeper, disjunct, inclusions)
            for keeper in kept
        ), f"dropped disjunct {disjunct} has no witness"
    assert evaluate_ucq(pruned.ucq, extents) == evaluate_ucq(ucq, extents)
