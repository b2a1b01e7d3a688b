"""Cost-based planning and execution of unfolded SQL algebra.

The unfolder (:mod:`repro.obda.rewriting.unfolding`) emits each UCQ
disjunct as ``Projection(Selection(Join(... Rename(source) ...)))`` with
*every* join condition parked in the top selection and ``on=()`` on the
joins — semantically fine, but the naive evaluator then materializes the
full cross product of the sources before filtering (a ~50x gap between
the SQL path and KB mode when the planner was introduced).

:class:`Planner` turns such a tree into an executable :class:`PlanNode`
tree instead:

* the join block is flattened into its factors and the condition set is
  classified into per-factor selections (pushed below the join), equi-join
  edges, and residual filters;
* factors are joined greedily in cost order — start from the smallest
  estimated factor, always join along a connected equi-edge when one
  exists, and pick the partner minimizing the estimated join cardinality
  ``|L||R| / max(V(L,a), V(R,b))`` from the
  :class:`~repro.obda.sql.stats.StatisticsCatalog`;
* an equi-join whose build side is a chain of renames, projections and
  filters over one table scan (every mapping source is one) does not
  execute that side: each outer row probes the table's own hash index
  (:meth:`~repro.obda.sql.table.Table.index`, extended on append) and
  runs the chain over the matching raw rows only;
* under set semantics (every unfolded part is consumed as a set: the
  root projection is ``DISTINCT`` and boolean parts are existence
  checks), factor columns no other operator needs are pruned early with
  deduplication, and a factor whose columns are not needed at all
  degenerates to a semi-join;
* selections are pushed through projections, renames, and union branches.

Every node records its estimated cardinality at plan time and its actual
row count at execution time (via an ``observed`` dict).  Anything the
planner cannot statically resolve (ambiguous columns, unknown operators)
falls back to an :class:`OpaqueNode` that defers to the naive evaluator
— the planner is an optimizer, never a second source of truth for
semantics; the unit and property suites pin the equivalence.

No query path of :class:`~repro.obda.system.OBDASystem` plans any more:
``perfectref-sql`` runs its unfolded parts through the compiled join
over the tables (:mod:`repro.obda.sql.tablecq`).  The module stays while
the benchmark's traced replay plans with it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...errors import MappingError
from ...obs.metrics import global_metrics
from ...runtime.budget import Budget
from .algebra import (
    Condition,
    Const,
    Expression,
    Join,
    Projection,
    Rename,
    ResultSet,
    Scan,
    Selection,
    UnionAll,
    _compile_conditions,
    _strip,
    evaluate,
)
from .database import Database
from .stats import JoinIndex, StatisticsCatalog
from .table import Row, join_key

__all__ = [
    "PlanNode",
    "TableScanNode",
    "FilterNode",
    "ProjectNode",
    "RenameNode",
    "HashJoinNode",
    "UnionNode",
    "OpaqueNode",
    "Planner",
    "PlannedQuery",
]

class _Unplannable(Exception):
    """Internal: this subtree cannot be statically analyzed; fall back."""


def _render_side(side) -> str:
    return repr(side.value) if isinstance(side, Const) else str(side)


def _render_condition(condition: Condition) -> str:
    return (
        f"{_render_side(condition.left)} {condition.operator} "
        f"{_render_side(condition.right)}"
    )


# ---------------------------------------------------------------------------
# plan nodes


class PlanNode:
    """One operator of an executable plan.

    ``columns`` is the static output schema, ``estimated_rows`` the
    planner's cardinality estimate.  :meth:`execute` records the actual
    cardinality into the optional ``observed`` dict (keyed by node
    identity), so one immutable plan can be executed concurrently while
    each execution keeps its own estimated-vs-actual story.
    """

    op = "plan"

    def __init__(
        self,
        columns: Sequence[str],
        estimated_rows: float,
        children: Sequence["PlanNode"] = (),
    ):
        self.columns = tuple(columns)
        self.estimated_rows = float(estimated_rows)
        self.children = tuple(children)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        database: Database,
        catalog: Optional[StatisticsCatalog],
        budget: Optional[Budget] = None,
        observed: Optional[Dict[int, int]] = None,
    ) -> ResultSet:
        if budget is not None:
            budget.check()
        result = self._execute(database, catalog, budget, observed)
        if observed is not None:
            observed[id(self)] = len(result.rows)
        return result

    def _execute(self, database, catalog, budget, observed) -> ResultSet:
        raise NotImplementedError

    # -- estimation --------------------------------------------------------

    def distinct_estimate(self, column: str) -> Optional[float]:
        """Estimated distinct values of *column* (matched on plain name)."""
        return None

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        raise NotImplementedError

    def nodes(self) -> Iterable["PlanNode"]:
        yield self
        for child in self.children:
            for node in child.nodes():
                yield node

    def render(self, observed: Optional[Dict[int, int]] = None) -> str:
        lines: List[str] = []

        def line(node: "PlanNode") -> str:
            actual = ""
            if observed is not None and id(node) in observed:
                actual = f", actual {observed[id(node)]}"
            return f"{node.describe()} (est {node.estimated_rows:.0f}{actual})"

        def walk(node: "PlanNode", prefix: str, tail: bool, root: bool) -> None:
            if root:
                lines.append(line(node))
                child_prefix = prefix
            else:
                lines.append(prefix + ("`- " if tail else "|- ") + line(node))
                child_prefix = prefix + ("   " if tail else "|  ")
            for index, child in enumerate(node.children):
                walk(child, child_prefix, index == len(node.children) - 1, False)

        walk(self, "", True, True)
        return "\n".join(lines)

    def to_dict(self, observed: Optional[Dict[int, int]] = None) -> Dict[str, object]:
        record: Dict[str, object] = {
            "op": self.op,
            "detail": self.describe(),
            "estimated_rows": round(self.estimated_rows, 1),
        }
        if observed is not None and id(self) in observed:
            record["actual_rows"] = observed[id(self)]
        if self.children:
            record["children"] = [child.to_dict(observed) for child in self.children]
        return record


class TableScanNode(PlanNode):
    op = "scan"

    def __init__(self, table, label, columns, estimated_rows, statistics):
        super().__init__(columns, estimated_rows)
        self.table = table
        self.label = label
        self.statistics = statistics

    def _execute(self, database, catalog, budget, observed):
        if budget is not None:
            budget.check()
        table = database.table(self.table)
        return ResultSet(self.columns, list(table.rows))

    def describe(self):
        alias = f" AS {self.label}" if self.label != self.table else ""
        return f"Scan {self.table}{alias}"

    def distinct_estimate(self, column):
        if self.statistics is None:
            return None
        distinct = self.statistics.distinct(_strip(column))
        return float(distinct) if distinct is not None else None


class FilterNode(PlanNode):
    op = "filter"

    def __init__(self, child, conditions, estimated_rows):
        super().__init__(child.columns, estimated_rows, (child,))
        self.conditions = tuple(conditions)

    def _execute(self, database, catalog, budget, observed):
        source = self.children[0].execute(database, catalog, budget, observed)
        predicate = _compile_conditions(self.conditions, source)
        rows = []
        for row in source.rows:
            if budget is not None:
                budget.tick()
            if predicate(row):
                rows.append(row)
        return ResultSet(source.columns, rows)

    def describe(self):
        return "Filter [" + " AND ".join(map(_render_condition, self.conditions)) + "]"

    def distinct_estimate(self, column):
        below = self.children[0].distinct_estimate(column)
        if below is None:
            return None
        return min(below, self.estimated_rows)


class ProjectNode(PlanNode):
    op = "project"

    def __init__(self, child, source_columns, names, distinct, estimated_rows):
        super().__init__(names, estimated_rows, (child,))
        self.source_columns = tuple(source_columns)
        self.distinct_flag = bool(distinct)

    def _execute(self, database, catalog, budget, observed):
        source = self.children[0].execute(database, catalog, budget, observed)
        indices = [source.column_index(column) for column in self.source_columns]
        rows = [tuple(row[i] for i in indices) for row in source.rows]
        result = ResultSet(self.columns, rows)
        return result.distinct() if self.distinct_flag else result

    def describe(self):
        distinct = " DISTINCT" if self.distinct_flag else ""
        return f"Project{distinct} [{', '.join(self.columns)}]"

    def distinct_estimate(self, column):
        wanted = _strip(column)
        for name, source in zip(self.columns, self.source_columns):
            if _strip(name) == wanted:
                below = self.children[0].distinct_estimate(source)
                if below is None:
                    return None
                return min(below, self.estimated_rows)
        return None


class RenameNode(PlanNode):
    op = "rename"

    def __init__(self, child, prefix):
        columns = tuple(f"{prefix}.{_strip(column)}" for column in child.columns)
        super().__init__(columns, child.estimated_rows, (child,))
        self.prefix = prefix

    def _execute(self, database, catalog, budget, observed):
        source = self.children[0].execute(database, catalog, budget, observed)
        return ResultSet(self.columns, source.rows)

    def describe(self):
        return f"Rename {self.prefix}"

    def distinct_estimate(self, column):
        return self.children[0].distinct_estimate(_strip(column))


class HashJoinNode(PlanNode):
    """Equi-join by hash probe; ``semi=True`` keeps left rows only.

    With a *probe* (see :class:`ChainProbe`) the build side is not
    executed: each left row probes the build table's shared index and
    the probe turns the bucket into the build side's matching rows.
    The table is resolved through the executing database, so a retry- or
    fault-wrapped database keeps its access-path semantics.  Without
    one, the build side is executed and hashed per execution.
    """

    op = "hash-join"

    def __init__(
        self,
        left,
        right,
        left_keys,
        right_keys,
        estimated_rows,
        semi=False,
        probe=None,
    ):
        columns = left.columns if semi else left.columns + right.columns
        super().__init__(columns, estimated_rows, (left, right))
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.semi = bool(semi)
        self.probe: Optional[ChainProbe] = probe

    def _execute(self, database, catalog, budget, observed):
        left = self.children[0].execute(database, catalog, budget, observed)
        left_positions = [left.column_index(column) for column in self.left_keys]
        if self.probe is not None:
            return self._probe(left, left_positions, database, budget)
        right = self.children[1].execute(database, catalog, budget, observed)
        right_positions = [right.column_index(column) for column in self.right_keys]
        index = JoinIndex()
        for row in right.rows:
            if budget is not None:
                budget.tick()
            index.add([row[i] for i in right_positions], row)
        rows = []
        if self.semi:
            for row in left.rows:
                if budget is not None:
                    budget.tick()
                if index.contains([row[i] for i in left_positions]):
                    rows.append(row)
            return ResultSet(self.columns, rows)
        for row in left.rows:
            for match in index.probe([row[i] for i in left_positions]):
                if budget is not None:
                    budget.tick()
                rows.append(row + match)
        return ResultSet(self.columns, rows)

    def _probe(self, left, left_positions, database, budget) -> ResultSet:
        probe = self.probe
        index = database.table(probe.table).index(probe.positions, budget)
        # join key -> the build side's rows with it (the first when semi)
        found: Dict[Tuple[str, ...], List[Row]] = {}
        rows = []
        for row in left.rows:
            key = join_key([row[i] for i in left_positions])
            matches = found.get(key)
            if matches is None:
                matches = found[key] = probe.matches(
                    index.get(key, ()), self.semi, budget
                )
            if self.semi:
                if budget is not None:
                    budget.tick()
                if matches:
                    rows.append(row)
                continue
            for match in matches:
                if budget is not None:
                    budget.tick()
                rows.append(row + match)
        return ResultSet(self.columns, rows)

    def describe(self):
        kind = "HashSemiJoin" if self.semi else "HashJoin"
        if not self.left_keys:
            keys = "cross"
        else:
            keys = " AND ".join(
                f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
            )
        via = ""
        if self.probe is not None:
            via = f" via index {self.probe.table}{list(self.probe.positions)}"
        return f"{kind} [{keys}]{via}"

    def distinct_estimate(self, column):
        for child in self.children if not self.semi else self.children[:1]:
            below = child.distinct_estimate(column)
            if below is not None:
                return min(below, self.estimated_rows)
        return None


class ChainProbe:
    """A join's build side that is a chain of :class:`RenameNode`,
    :class:`ProjectNode` and :class:`FilterNode` over one
    :class:`TableScanNode`, compiled against the table's raw rows.

    Renames and projections only move cells, so the join keys and output
    columns map back to raw positions and the filters run on raw rows.
    Filters commute with projections (they read projected cells), and
    the build side's rows with one key are the chain over the raw rows
    with that key, because the keys are among its output columns.  The
    rows are deduplicated at the topmost DISTINCT projection, with
    :meth:`ResultSet.distinct`'s identity, and any plain projection
    above it keeps the first raw row of each duplicate group — exactly
    what executing the chain yields, in every mode.
    """

    __slots__ = ("table", "positions", "predicate", "distinct", "output")

    def __init__(self, table, positions, predicate, distinct, output):
        self.table = table
        #: raw positions of the join keys: the table index to probe
        self.positions = tuple(positions)
        #: the chain's filters over a raw row, or None
        self.predicate = predicate
        #: raw positions of the topmost DISTINCT projection, or None
        self.distinct = distinct
        #: raw positions of the chain's output columns, or None when
        #: they are the raw row itself
        self.output = output

    def matches(
        self, bucket: Sequence[Row], first: bool, budget: Optional[Budget]
    ) -> List[Row]:
        """The build side's rows among the raw rows of *bucket*; with
        *first*, only the first of them."""
        predicate, output = self.predicate, self.output
        # one raw row cannot repeat
        distinct = self.distinct if len(bucket) > 1 else None
        seen = set()
        rows: List[Row] = []
        for raw in bucket:
            if budget is not None:
                budget.tick()
            if predicate is not None and not predicate(raw):
                continue
            if distinct is not None:
                cells = tuple([raw[i] for i in distinct])
                identity = (join_key(cells), cells)
                if identity in seen:
                    continue
                seen.add(identity)
            rows.append(raw if output is None else tuple([raw[i] for i in output]))
            if first:
                break
        return rows


class UnionNode(PlanNode):
    op = "union"

    def __init__(self, parts, estimated_rows):
        super().__init__(parts[0].columns, estimated_rows, parts)

    def _execute(self, database, catalog, budget, observed):
        rows = []
        for child in self.children:
            part = child.execute(database, catalog, budget, observed)
            rows.extend(part.rows)
        return ResultSet(self.columns, rows)

    def describe(self):
        return f"UnionAll ({len(self.children)} parts)"

    def distinct_estimate(self, column):
        total = 0.0
        for child in self.children:
            below = child.distinct_estimate(column)
            if below is None:
                return None
            total += below
        return total


class OpaqueNode(PlanNode):
    """Fallback: evaluate the original expression with the naive evaluator.

    Used when the tree contains something the planner cannot statically
    resolve; semantics (including error behavior on malformed trees) are
    exactly the naive evaluator's.
    """

    op = "opaque"

    def __init__(self, expression: Expression):
        super().__init__((), 0.0)
        self.expression = expression

    def _execute(self, database, catalog, budget, observed):
        return evaluate(self.expression, database, budget=budget)

    def describe(self):
        return f"NaiveEval {type(self.expression).__name__}"


# ---------------------------------------------------------------------------
# the optimizer


class Planner:
    """Compile algebra expressions into cost-ordered :class:`PlanNode` trees.

    One planner instance serves one :meth:`plan` call chain; it is cheap
    to construct and holds no state beyond the catalog, the budget, and
    the per-call set-semantics flag.
    """

    def __init__(
        self,
        catalog: StatisticsCatalog,
        budget: Optional[Budget] = None,
        database: Optional[Database] = None,
    ):
        self.catalog = catalog
        self.budget = budget
        #: plan-time schema/statistics access path — pass the retry-wrapped
        #: database here so faults during planning are retried exactly like
        #: faults during execution (defaults to the catalog's raw database)
        self.database = database if database is not None else catalog.database
        self._set_semantics = False
        self._columns_memo: Dict[int, Tuple[str, ...]] = {}

    def plan(
        self,
        expression: Expression,
        set_semantics: bool = False,
        needed: Optional[Iterable[str]] = None,
    ) -> PlanNode:
        """An executable plan for *expression*.

        With ``set_semantics=True`` the caller asserts only the *set* of
        output rows matters (honored only when the root is a DISTINCT
        projection or ``needed=()`` marks an existence-only consumer),
        unlocking early deduplication and semi-joins.  ``needed=()``
        additionally allows the planner to drop all output columns.
        Anything unplannable degrades to :class:`OpaqueNode` (the naive
        evaluator), never to an error.
        """
        needed_set = None if needed is None else set(needed)
        self._set_semantics = bool(set_semantics) and (
            needed_set == set()
            or (isinstance(expression, Projection) and expression.distinct)
        )
        try:
            node = self._plan(expression, [], needed_set)
        except _Unplannable:
            global_metrics().counter("obda.planner.fallbacks").inc()
            return OpaqueNode(expression)
        return node

    # -- recursion ---------------------------------------------------------

    def _plan(
        self,
        expression: Expression,
        pending: List[Condition],
        needed: Optional[Set[str]],
    ) -> PlanNode:
        if self.budget is not None:
            self.budget.check()
        if isinstance(expression, Selection):
            return self._plan(
                expression.source, list(expression.conditions) + pending, needed
            )
        if isinstance(expression, Scan):
            return self._finish(self._scan(expression), pending)
        if isinstance(expression, Rename):
            return self._plan_rename(expression, pending, needed)
        if isinstance(expression, Projection):
            return self._plan_projection(expression, pending, needed)
        if isinstance(expression, UnionAll):
            return self._plan_union(expression, pending, needed)
        if isinstance(expression, Join):
            return self._plan_join(expression, pending, needed)
        raise _Unplannable(f"unsupported node {type(expression).__name__}")

    def _scan(self, scan: Scan) -> TableScanNode:
        try:
            table = self.database.table(scan.table)
        except MappingError as error:
            raise _Unplannable(str(error)) from None
        statistics = self.catalog.statistics(
            scan.table, budget=self.budget, table=table
        )
        columns = tuple(f"{scan.label}.{column}" for column in table.columns)
        return TableScanNode(
            scan.table, scan.label, columns, statistics.row_count, statistics
        )

    def _plan_rename(self, expression, pending, needed):
        prefix = expression.prefix
        inner_pending = [
            self._map_condition(c, lambda ref: self._unprefix(ref, prefix))
            for c in pending
        ]
        inner_needed = (
            None
            if needed is None
            else {self._unprefix(ref, prefix) for ref in needed}
        )
        child = self._plan(expression.source, inner_pending, inner_needed)
        return RenameNode(child, prefix)

    def _plan_projection(self, expression, pending, needed):
        source_columns = self._static_columns(expression.source)
        indices = [self._find(source_columns, c) for c in expression.columns]
        names = expression.names or tuple(
            _strip(source_columns[i]) for i in indices
        )
        if len(set(names)) != len(names):
            raise _Unplannable("duplicate projection output names")
        out_to_source = {
            name: source_columns[i] for name, i in zip(names, indices)
        }
        inner_pending: List[Condition] = []
        above: List[Condition] = []
        for condition in pending:
            try:
                inner_pending.append(
                    self._map_condition(
                        condition,
                        lambda ref: out_to_source[names[self._find(names, ref)]],
                    )
                )
            except _Unplannable:
                above.append(condition)
        inner_needed = set(out_to_source.values())
        for condition in inner_pending:
            inner_needed |= self._condition_refs(condition)
        child = self._plan(expression.source, inner_pending, inner_needed)
        estimated = child.estimated_rows
        if expression.distinct:
            width = 1.0
            for i in indices:
                below = child.distinct_estimate(source_columns[i])
                width *= below if below is not None else max(estimated, 1.0)
            estimated = min(estimated, width)
        node = ProjectNode(
            child,
            tuple(source_columns[i] for i in indices),
            names,
            expression.distinct,
            estimated,
        )
        return self._finish(node, above)

    def _plan_union(self, expression, pending, needed):
        parts_columns = [self._static_columns(part) for part in expression.parts]
        width = len(parts_columns[0])
        if any(len(columns) != width for columns in parts_columns):
            raise _Unplannable("UNION branches have different arities")
        base = parts_columns[0]
        pushed: List[Condition] = []
        above: List[Condition] = []
        for condition in pending:
            try:
                # validate positional translatability against every branch
                for columns in parts_columns:
                    self._map_condition(
                        condition, lambda ref: columns[self._find(base, ref)]
                    )
                pushed.append(condition)
            except _Unplannable:
                above.append(condition)
        planned = []
        for part, columns in zip(expression.parts, parts_columns):
            part_pending = [
                self._map_condition(c, lambda ref: columns[self._find(base, ref)])
                for c in pushed
            ]
            # no needed-pruning below a union: branches must keep one schema
            planned.append(self._plan(part, part_pending, None))
        node = UnionNode(
            planned, sum(child.estimated_rows for child in planned)
        )
        return self._finish(node, above)

    # -- the join block ----------------------------------------------------

    def _plan_join(self, expression, pending, needed):
        factors: List[Expression] = []
        conditions: List[Condition] = []

        def flatten(node: Expression) -> None:
            if isinstance(node, Join):
                left_columns = self._static_columns(node.left)
                right_columns = self._static_columns(node.right)
                for left_ref, right_ref in node.on:
                    conditions.append(
                        Condition(
                            left_columns[self._find(left_columns, left_ref)],
                            right_columns[self._find(right_columns, right_ref)],
                            "=",
                        )
                    )
                flatten(node.left)
                flatten(node.right)
            elif isinstance(node, Selection):
                scope = self._static_columns(node.source)
                for condition in node.conditions:
                    conditions.append(self._qualify(condition, scope))
                flatten(node.source)
            else:
                factors.append(node)

        flatten(expression)
        expected = self._static_columns(expression)
        for condition in pending:
            conditions.append(self._qualify(condition, expected))

        factor_columns = [self._static_columns(factor) for factor in factors]
        owner: Dict[str, int] = {}
        for index, columns in enumerate(factor_columns):
            for column in columns:
                if column in owner:
                    raise _Unplannable(f"column {column!r} in two join factors")
                owner[column] = index

        count = len(factors)
        single: List[List[Condition]] = [[] for _ in range(count)]
        edges: List[Tuple[int, int, str, str]] = []
        residual: List[Condition] = []
        for condition in conditions:
            refs = self._condition_refs(condition)
            owners = {owner[ref] for ref in refs}
            if not owners:
                residual.append(condition)
            elif len(owners) == 1:
                single[owners.pop()].append(condition)
            elif condition.operator == "=" and len(refs) == 2:
                left, right = condition.left, condition.right
                edges.append((owner[left], owner[right], left, right))
            else:
                residual.append(condition)

        needed_columns: Optional[Set[str]] = None
        if needed is not None:
            needed_columns = {
                expected[self._find(expected, ref)] for ref in needed
            }
        residual_refs: Set[str] = set()
        for condition in residual:
            residual_refs |= self._condition_refs(condition)

        plans = [
            self._plan(factor, single[index], None)
            for index, factor in enumerate(factors)
        ]
        if needed_columns is not None:
            plans = [
                self._prune_factor(
                    plan,
                    index,
                    factor_columns[index],
                    needed_columns,
                    edges,
                    residual_refs,
                )
                for index, plan in enumerate(plans)
            ]

        current, current_set = self._greedy_join(
            plans, edges, needed_columns, residual_refs
        )

        # residual conditions (non-equi cross-factor, const-only) run last
        current = self._finish(current, residual)

        if needed is None and current.columns != expected:
            # exact mode: restore the naive evaluator's column order
            current = ProjectNode(
                current, expected, expected, False, current.estimated_rows
            )
        return current

    def _prune_factor(
        self, plan, index, columns, needed_columns, edges, residual_refs
    ):
        keep = {
            column
            for column in columns
            if column in needed_columns or column in residual_refs
        }
        for a, b, left, right in edges:
            if a == index:
                keep.add(left)
            if b == index:
                keep.add(right)
        kept = tuple(column for column in plan.columns if column in keep)
        if len(kept) == len(plan.columns):
            return plan
        estimated = plan.estimated_rows
        if self._set_semantics:
            width = 1.0
            for column in kept:
                below = plan.distinct_estimate(column)
                width *= below if below is not None else max(estimated, 1.0)
            estimated = min(estimated, width) if kept else min(estimated, 1.0)
        return ProjectNode(plan, kept, kept, self._set_semantics, estimated)

    def _greedy_join(self, plans, edges, needed_columns, residual_refs):
        count = len(plans)
        if count == 1:
            return plans[0], {0}
        remaining = set(range(count))
        start = min(remaining, key=lambda i: plans[i].estimated_rows)
        remaining.discard(start)
        current = plans[start]
        current_set = {start}
        while remaining:
            best = None
            for j in sorted(remaining):
                keys = []
                for a, b, left, right in edges:
                    if a in current_set and b == j:
                        keys.append((left, right))
                    elif b in current_set and a == j:
                        keys.append((right, left))
                estimated = self._join_estimate(current, plans[j], keys)
                score = (0 if keys else 1, estimated, j)
                if best is None or score < best[0]:
                    best = (score, j, keys, estimated)
            _, j, keys, estimated = best
            semi = self._semi_join_eligible(
                plans[j], j, remaining - {j}, edges, needed_columns, residual_refs
            )
            if semi:
                estimated = current.estimated_rows * (0.75 if keys else 1.0)
            right_keys = tuple(right for _, right in keys)
            current = HashJoinNode(
                current,
                plans[j],
                tuple(left for left, _ in keys),
                right_keys,
                estimated,
                semi=semi,
                probe=self._chain_probe(plans[j], right_keys) if keys else None,
            )
            current_set.add(j)
            remaining.discard(j)
        return current, current_set

    def _chain_probe(self, plan, keys) -> Optional[ChainProbe]:
        """*plan* as a probe of its table's index on *keys*, or None
        when it is not a rename/project/filter chain over one scan."""
        chain = []
        scan = plan
        while isinstance(scan, (RenameNode, ProjectNode, FilterNode)):
            chain.append(scan)
            scan = scan.children[0]
        if not isinstance(scan, TableScanNode):
            return None
        positions = tuple(range(len(scan.columns)))  # per column of the level
        conditions: List[Condition] = []
        distinct = None
        for link in reversed(chain):
            below = link.children[0].columns
            if isinstance(link, FilterNode):
                conditions.extend(
                    self._map_condition(
                        condition,
                        lambda ref: scan.columns[positions[below.index(ref)]],
                    )
                    for condition in link.conditions
                )
            elif isinstance(link, ProjectNode):
                positions = tuple(
                    positions[below.index(column)] for column in link.source_columns
                )
                if link.distinct_flag:
                    distinct = positions
        predicate = (
            _compile_conditions(conditions, ResultSet(scan.columns, []))
            if conditions
            else None
        )
        return ChainProbe(
            scan.table,
            [positions[plan.columns.index(key)] for key in keys],
            predicate,
            distinct,
            None if positions == tuple(range(len(scan.columns))) else positions,
        )

    def _semi_join_eligible(
        self, right_plan, j, still_remaining, edges, needed_columns, residual_refs
    ) -> bool:
        if not self._set_semantics or needed_columns is None:
            return False
        columns = set(right_plan.columns)
        if columns & needed_columns or columns & residual_refs:
            return False
        for a, b, left, right in edges:
            if a == j and b in still_remaining and left in columns:
                return False
            if b == j and a in still_remaining and right in columns:
                return False
        return True

    # -- estimation --------------------------------------------------------

    def _join_estimate(self, left, right, keys) -> float:
        cross = left.estimated_rows * right.estimated_rows
        if not keys:
            return cross
        divisor = 1.0
        for left_key, right_key in keys:
            left_distinct = left.distinct_estimate(left_key)
            right_distinct = right.distinct_estimate(right_key)
            candidates = [d for d in (left_distinct, right_distinct) if d]
            divisor *= max(candidates) if candidates else 1.0
        return cross / max(divisor, 1.0)

    def _filter_estimate(self, plan, conditions) -> float:
        estimated = plan.estimated_rows
        for condition in conditions:
            left_const = isinstance(condition.left, Const)
            right_const = isinstance(condition.right, Const)
            if condition.operator != "=":
                estimated *= 0.9
            elif left_const and right_const:
                estimated *= 0.5
            else:
                refs = self._condition_refs(condition)
                distincts = [
                    d
                    for d in (plan.distinct_estimate(ref) for ref in refs)
                    if d
                ]
                estimated *= 1.0 / max(distincts) if distincts else 0.1
        return estimated

    # -- helpers -----------------------------------------------------------

    def _finish(self, plan: PlanNode, pending: Sequence[Condition]) -> PlanNode:
        if not pending:
            return plan
        conditions = [self._qualify(c, plan.columns) for c in pending]
        return FilterNode(plan, conditions, self._filter_estimate(plan, conditions))

    @staticmethod
    def _condition_refs(condition: Condition) -> Set[str]:
        return {
            side
            for side in (condition.left, condition.right)
            if not isinstance(side, Const)
        }

    def _find(self, columns: Sequence[str], ref) -> int:
        if not isinstance(ref, str):
            raise _Unplannable(f"not a column reference: {ref!r}")
        try:
            return columns.index(ref)
        except ValueError:
            pass
        matches = [i for i, column in enumerate(columns) if _strip(column) == ref]
        if len(matches) == 1:
            return matches[0]
        raise _Unplannable(f"cannot statically resolve column {ref!r}")

    def _qualify(self, condition: Condition, columns: Sequence[str]) -> Condition:
        return self._map_condition(
            condition, lambda ref: columns[self._find(columns, ref)]
        )

    def _map_condition(self, condition: Condition, translate) -> Condition:
        left = (
            condition.left
            if isinstance(condition.left, Const)
            else translate(condition.left)
        )
        right = (
            condition.right
            if isinstance(condition.right, Const)
            else translate(condition.right)
        )
        return Condition(left, right, condition.operator)

    def _unprefix(self, ref: str, prefix: str) -> str:
        if ref.startswith(prefix + "."):
            return ref[len(prefix) + 1 :]
        if "." in ref:
            raise _Unplannable(f"reference {ref!r} does not resolve under {prefix!r}")
        return ref

    def _static_columns(self, expression: Expression) -> Tuple[str, ...]:
        cached = self._columns_memo.get(id(expression))
        if cached is not None:
            return cached
        if isinstance(expression, Scan):
            try:
                table = self.database.table(expression.table)
            except MappingError as error:
                raise _Unplannable(str(error)) from None
            columns = tuple(
                f"{expression.label}.{column}" for column in table.columns
            )
        elif isinstance(expression, Selection):
            columns = self._static_columns(expression.source)
        elif isinstance(expression, Projection):
            source = self._static_columns(expression.source)
            indices = [self._find(source, c) for c in expression.columns]
            columns = expression.names or tuple(
                _strip(source[i]) for i in indices
            )
        elif isinstance(expression, Join):
            columns = self._static_columns(expression.left) + self._static_columns(
                expression.right
            )
        elif isinstance(expression, Rename):
            columns = tuple(
                f"{expression.prefix}.{_strip(column)}"
                for column in self._static_columns(expression.source)
            )
        elif isinstance(expression, UnionAll):
            columns = self._static_columns(expression.parts[0])
        else:
            raise _Unplannable(f"unsupported node {type(expression).__name__}")
        self._columns_memo[id(expression)] = columns
        return columns


# ---------------------------------------------------------------------------
# planned unfolded queries


class PlannedPart:
    """One unfolded UCQ part: an executable plan plus answer recipes."""

    def __init__(self, plan: PlanNode, recipes: Tuple):
        self.plan = plan
        self.recipes = tuple(recipes)


class PlannedQuery:
    """A cost-based executable form of an ``UnfoldedQuery``.

    Mirrors :meth:`UnfoldedQuery.execute` — one plan per UCQ part, the
    same IRI-template answer assembly — so the two paths are drop-in
    interchangeable and differentially testable.
    """

    def __init__(
        self, parts: List[PlannedPart], arity: int, catalog: StatisticsCatalog
    ):
        self.parts = parts
        self.arity = arity
        self.catalog = catalog

    @classmethod
    def from_unfolded(
        cls,
        unfolded,
        catalog: StatisticsCatalog,
        budget: Optional[Budget] = None,
        database: Optional[Database] = None,
    ) -> "PlannedQuery":
        planner = Planner(catalog, budget=budget, database=database)
        parts = []
        for expression, recipes in unfolded.parts:
            if recipes:
                plan = planner.plan(expression, set_semantics=True)
            else:  # boolean part: only existence of a row matters
                plan = planner.plan(expression, set_semantics=True, needed=())
            parts.append(PlannedPart(plan, recipes))
        global_metrics().counter("obda.planner.plans").inc()
        return cls(parts, unfolded.arity, catalog)

    @property
    def size(self) -> int:
        return len(self.parts)

    @property
    def estimated_rows(self) -> float:
        return sum(part.plan.estimated_rows for part in self.parts)

    def execute(
        self,
        database: Database,
        budget: Optional[Budget] = None,
        observed: Optional[Dict[int, int]] = None,
    ) -> Set[Tuple]:
        from ..rewriting.unfolding import answer_rows

        answers: Set[Tuple] = set()
        for part in self.parts:
            if budget is not None:
                budget.check()
            result = part.plan.execute(database, self.catalog, budget, observed)
            answers.update(answer_rows(result, part.recipes, budget))
        return answers

    def render(self, observed: Optional[Dict[int, int]] = None) -> str:
        if not self.parts:
            return "-- empty rewriting: no mapping matches the query"
        blocks = []
        for index, part in enumerate(self.parts):
            blocks.append(f"part {index}:")
            blocks.append(part.plan.render(observed))
        return "\n".join(blocks)

    def report(
        self, observed: Optional[Dict[int, int]] = None
    ) -> Dict[str, object]:
        """A JSON-friendly plan report."""
        return {
            "parts": [
                {
                    "estimated_rows": round(part.plan.estimated_rows, 1),
                    "actual_rows": (
                        observed.get(id(part.plan))
                        if observed is not None
                        else None
                    ),
                    "plan": part.plan.to_dict(observed),
                    "text": part.plan.render(observed),
                }
                for part in self.parts
            ],
            "estimated_rows": round(self.estimated_rows, 1),
        }
