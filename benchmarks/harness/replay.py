"""Traced replay: per-layer times from the same operations.

:class:`ReplayExecutor` stands in for ``workloads.DirectExecutor`` in the
second pass of a traced run.  It replays each answer-cache miss as the
chain of public calls ``OBDASystem.certain_answers`` makes for that
method, and each Figure-1 classification as the calls
``GraphReasoner.measure`` makes, wrapping every call in a
``bench.<layer>.<call>`` span of a standalone
:class:`repro.obs.trace.Tracer`.  The tracer is never installed with
``use_tracer``, so the library itself keeps the no-op tracer and the
spans cover exactly the benchmark's calls into each layer.

After each replayed chain the executor asks the system the same query
untimed.  That keeps the system's own caches in the state the untraced
pass saw, and gives the reference answers the chain must reproduce.
The rewriting and unfolding caches the chain consults are mirrors:
``LRUCache`` instances of the size the workloads give every system
(``workloads.CACHE_SIZE``) under the system's keys, so the chain hits and
misses where ``certain_answers`` does.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.classify import Classification
from repro.core.closure import transitive_closure
from repro.core.digraph import build_digraph
from repro.core.unsat import compute_unsat
from repro.dllite import parse_tbox
from repro.errors import InconsistentOntology, TimeoutExceeded
from repro.obda import (
    DatalogExtents,
    ExtensionalConstraints,
    MappingExtents,
    evaluate_ucq,
    parse_query,
    perfect_ref,
    presto_rewrite,
    prune_ucq_with_constraints,
    unfold,
)
from repro.obda.sql.planner import PlannedQuery
from repro.obs.trace import Tracer
from repro.perf import LRUCache, prune_ucq, ucq_key
from repro.runtime.budget import Budget

import percentiles
from hostspeed import HostSpeed
from workloads import CACHE_SIZE, answer_digest

#: time cap of one naive-executor probe
NAIVE_CAP_S = 0.1


class _Mirror:
    """Harness-side copies of one system's query-keyed caches."""

    def __init__(self, system):
        self.rewritings = LRUCache(CACHE_SIZE, name="bench-rewriting")
        self.unfoldings = LRUCache(CACHE_SIZE, name="bench-unfolding")
        # OBDASystem prunes against its own raw provider of the mapped
        # extents, not the shared one, so the replay does the same.
        self.constraints = ExtensionalConstraints(
            MappingExtents(system.mappings, system.database)
        )
        self.consistent_at: Optional[int] = None


class ReplayExecutor:
    """Replays a recorded pass through traced call chains."""

    def __init__(self, calls: Sequence[Tuple[str, str, Optional[str], bool]],
                 workdir: Path):
        self._calls = list(calls)
        self._next = 0
        self._workdir = workdir
        self._replicas = 0
        self._mirrors: Dict[int, _Mirror] = {}
        #: TBoxes whose classification was already replayed, by id
        self._classified: Dict[int, object] = {}
        #: the planned execution whose naive twin runs after the timing
        self._naive_probe = None
        #: scales span times to the reference host, as the recorder does
        #: the end-to-end times
        self.speed = HostSpeed()
        #: span name -> [(self seconds, attributes, phase)]; the phase is
        #: the tracer's name: "setup", "op" or "probe"
        self.spans: Dict[str, List[Tuple[float, dict, str]]] = {}
        self.derived: Dict[str, List[float]] = {}
        self.covered_s = 0.0
        self.op_s = 0.0
        self.mismatches: List[str] = []

    # -- set-up --------------------------------------------------------------

    def backend_path(self) -> str:
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._replicas += 1
        path = self._workdir / f"replica-{os.getpid()}-{self._replicas}.sqlite"
        if path.exists():
            path.unlink()
        return str(path)

    def parse_tbox(self, text: str, name: str):
        tracer = Tracer("setup")
        with tracer.span("bench.dllite.parse_tbox"):
            tbox = parse_tbox(text, name=name)
        self._fold(tracer)
        return tbox

    def classify_system(self, system) -> None:
        """Replay the classification the first system over a freshly
        parsed TBox computes (the others share it through the cache)."""
        if id(system.tbox) not in self._classified:
            self._classified[id(system.tbox)] = system.tbox
            tracer = Tracer("setup")
            self._classify_chain(tracer, system.tbox)
            self._fold(tracer)
            self.derived.setdefault("system.classify", []).append(
                self.speed.scale(sum(span.elapsed_s for span in tracer.spans))
            )
        system.classification

    def warm_up(self, system, query, method: str, check: bool) -> None:
        tracer = Tracer("setup")
        answers = self._answer_chain(tracer, system, query, method, check)
        self._fold(tracer)
        self._sync(system, query, method, check, answers, None, "warm-up")

    def release(self, system) -> None:
        self._mirrors.pop(id(system), None)
        self._classified.pop(id(system.tbox), None)
        stats = system.cache_stats()
        if "backend" in stats:
            backend = system.sql_backend()
            backend.close()
            if backend.path is not None and os.path.exists(backend.path):
                os.unlink(backend.path)

    # -- operations ----------------------------------------------------------

    def measure(self, tbox) -> Tuple[int, float]:
        tracer = Tracer("op")
        started = time.perf_counter()
        graph, closure, unsat = self._classify_chain(tracer, tbox)
        with tracer.span("bench.core.subsumption_count") as span:
            count = Classification(graph, closure, unsat).subsumption_count(
                named_only=True
            )
            span.set("subsumptions", count)
        latency = time.perf_counter() - started
        self._fold(tracer, latency)
        return count, latency

    def answer(self, system, query, method: str, check: bool):
        if self._next >= len(self._calls):
            raise RuntimeError("replay ran past the recorded pass")
        label, recorded_method, digest, hit = self._calls[self._next]
        self._next += 1
        if recorded_method != method:
            raise RuntimeError(
                f"replay out of step at call {self._next}: "
                f"{method} where the pass recorded {recorded_method} ({label})"
            )
        if digest is None:  # raised in the recorded pass: must raise again
            system.certain_answers(query, method=method, check_consistency=check)
            self.mismatches.append(
                f"replay: {label} [{method}] succeeded where the recorded pass raised"
            )
            raise RuntimeError("replay diverged from the recorded pass")
        tracer = Tracer("op")
        if hit:
            hits = system.cache_stats()["answers"]["hits"]
            started = time.perf_counter()
            with tracer.span("bench.system.certain_answers"):
                answers = system.certain_answers(
                    query, method=method, check_consistency=check
                )
            latency = time.perf_counter() - started
            self._fold(tracer, latency)
            if system.cache_stats()["answers"]["hits"] == hits:
                self.mismatches.append(f"replay: {label} [{method}] missed the cache")
            if answer_digest(answers) != digest:
                self.mismatches.append(f"replay: {label} [{method}] hit changed answers")
            return answers, latency, True
        started = time.perf_counter()
        answers = self._answer_chain(tracer, system, query, method, check)
        latency = time.perf_counter() - started
        self._fold(tracer, latency)
        self._sync(system, query, method, check, answers, digest, label)
        return answers, latency, False

    # -- the chains ----------------------------------------------------------

    def _classify_chain(self, tracer, tbox):
        """``GraphClassifier.classify``: digraph, closure, computeUnsat."""
        with tracer.span("bench.core.build_digraph") as span:
            graph = build_digraph(tbox)
            span.set("arcs", graph.arc_count)
        with tracer.span("bench.core.transitive_closure"):
            closure = transitive_closure(graph.successors)
        with tracer.span("bench.core.compute_unsat"):
            unsat = compute_unsat(graph, closure)
        return graph, closure, unsat

    def _mirror(self, system) -> _Mirror:
        mirror = self._mirrors.get(id(system))
        if mirror is None:
            mirror = self._mirrors[id(system)] = _Mirror(system)
        return mirror

    def _answer_chain(self, tracer, system, query, method: str, check: bool):
        """The calls ``certain_answers`` makes on an answer-cache miss."""
        mirror = self._mirror(system)
        if isinstance(query, str):
            with tracer.span("bench.obda.parse_query"):
                query = parse_query(query)
        generation = system.database.generation
        if check and mirror.consistent_at != generation:
            with tracer.span("bench.system.inconsistency_witnesses"):
                witnesses = system.inconsistency_witnesses()
            mirror.consistent_at = generation
            if witnesses:
                raise InconsistentOntology("; ".join(witnesses))
        key = ucq_key(query)
        group = "presto" if method == "presto" else "perfectref"
        rewritten = mirror.rewritings.get((key, group))
        if rewritten is None:
            if group == "presto":
                classification = system.classification
                with tracer.span("bench.rewriting.presto_rewrite") as span:
                    rewritten = presto_rewrite(query, system.tbox, classification)
                    span.set("rules", len(rewritten.rules))
            else:
                with tracer.span("bench.rewriting.perfect_ref") as span:
                    raw = perfect_ref(query, system.tbox, minimize=False)
                    span.set("disjuncts", len(raw))
                with tracer.span("bench.perf.prune_ucq") as span:
                    pruned = prune_ucq(raw)
                    span.annotate(before=pruned.before, after=pruned.after)
                rewritten = pruned.ucq
            mirror.rewritings.put((key, group), rewritten)
        if method in ("perfectref", "presto"):
            return self._evaluate(tracer, system, rewritten, method)
        with tracer.span("bench.constraints.prune") as span:
            constraints = mirror.constraints
            inclusions = constraints.relevant_inclusions(
                rewritten, extents=constraints.extents
            )
            pruned = prune_ucq_with_constraints(rewritten, inclusions)
            span.annotate(before=pruned.before, after=pruned.after)
        unfold_key = (key, ExtensionalConstraints.fingerprint(inclusions))
        unfolded = mirror.unfoldings.get(unfold_key)
        if unfolded is None:
            with tracer.span("bench.rewriting.unfold") as span:
                unfolded = unfold(pruned.ucq, system.mappings)
                span.set("parts", unfolded.size)
            mirror.unfoldings.put(unfold_key, unfolded)
        if method == "perfectref-sqlite":
            return self._execute_sqlite(tracer, system, unfolded)
        catalog = system.statistics_catalog()
        with tracer.span("bench.sql.plan"):
            planned = PlannedQuery.from_unfolded(
                unfolded, catalog, database=system.database
            )
        observed: Dict[int, int] = {}
        with tracer.span("bench.sql.planned_execute") as span:
            answers = planned.execute(system.database, observed=observed)
            span.annotate(rows=sum(observed.values()), answers=len(answers))
        self._naive_probe = (unfolded, system.database, answers)
        return answers

    def _evaluate(self, tracer, system, rewritten, method: str):
        base = system.extents()
        provider, ucq = base, rewritten
        if method == "presto":
            provider, ucq = DatalogExtents(rewritten, base), rewritten.ucq
        predicates = sorted({(atom.predicate, atom.arity)
                             for disjunct in ucq for atom in disjunct.atoms})
        pulls = base.pulls
        with tracer.span("bench.evaluation.extent") as span:
            for predicate, arity in predicates:
                provider.extent(predicate, arity)
            span.set("pulls", base.pulls - pulls)
        with tracer.span("bench.evaluation.evaluate_ucq"):
            return evaluate_ucq(ucq, provider)

    def _execute_sqlite(self, tracer, system, unfolded):
        backend = system.sql_backend()
        first = backend.stats()["executions"] == 0
        with tracer.span("bench.sqlite.execute_unfolded") as span:
            answers = backend.execute_unfolded(unfolded)
            span.set("first", first)
        if first and backend.path is not None:
            shipped = backend.stats()["rows_shipped"]
            if shipped:
                self.derived.setdefault("sqlite.replica_bytes_per_row", []).append(
                    os.path.getsize(backend.path) / shipped
                )
        return answers

    def _sync(self, system, query, method, check, answers, digest, label) -> None:
        """Untimed: the naive-executor probe, then the real call, whose
        answers the chain (and the recorded pass) must match."""
        if self._naive_probe is not None:
            unfolded, database, planned_answers = self._naive_probe
            self._naive_probe = None
            tracer = Tracer("probe")
            naive = None
            # The naive executor evaluates nested joins as cross products,
            # so on 3-5 way joins it can run for minutes and fill memory;
            # the cap keeps the probe to a bounded sample of that cost.
            with tracer.span("bench.sql.naive_execute") as span:
                try:
                    naive = unfolded.execute(
                        database, budget=Budget(NAIVE_CAP_S, task="naive-probe")
                    )
                except TimeoutExceeded:
                    pass
                span.set("capped", naive is None)
            self._fold(tracer)
            if naive is not None and naive != planned_answers:
                self.mismatches.append(f"replay: {label}: naive != planned answers")
        reference = system.certain_answers(query, method=method, check_consistency=check)
        chained = answer_digest(answers)
        if chained != answer_digest(reference) or (digest and chained != digest):
            self.mismatches.append(
                f"replay: {label} [{method}]: chained answers differ from "
                "certain_answers"
            )

    def _fold(self, tracer: Tracer, latency: Optional[float] = None) -> None:
        """Fold one tracer's spans into the per-name self-time lists
        (scaled; the coverage sums stay unscaled, like *latency*)."""
        if tracer.open_spans:
            self.mismatches.append(
                f"unclosed spans: {[span.name for span in tracer.open_spans]}"
            )
        self.speed.tick()
        covered = 0.0
        for span in tracer.spans:
            own = span.elapsed_s - sum(child.elapsed_s for child in span.children)
            self.spans.setdefault(span.name, []).append(
                (self.speed.scale(own), dict(span.attributes), tracer.name)
            )
            covered += own
        if latency is not None:
            self.covered_s += covered
            self.op_s += latency


# -- per-layer metrics -------------------------------------------------------------

OPS = ("op",)
#: classification and parsing happen in set-up on the OBDA workloads
OPS_AND_SETUP = ("op", "setup")

#: metric -> (span name, attribute filter or None, phases); the value is
#: the median self time of the selected spans
TIME_METRICS = {
    "dllite.parse_ms": ("bench.dllite.parse_tbox", None, ("setup",)),
    "core.digraph_ms": ("bench.core.build_digraph", None, OPS_AND_SETUP),
    "core.closure_ms": ("bench.core.transitive_closure", None, OPS_AND_SETUP),
    "core.unsat_ms": ("bench.core.compute_unsat", None, OPS_AND_SETUP),
    "core.count_ms": ("bench.core.subsumption_count", None, OPS),
    "rewriting.perfectref_ms": ("bench.rewriting.perfect_ref", None, OPS),
    "rewriting.presto_ms": ("bench.rewriting.presto_rewrite", None, OPS),
    "rewriting.unfold_ms": ("bench.rewriting.unfold", None, OPS),
    "perf.prune_ms": ("bench.perf.prune_ucq", None, OPS),
    "constraints.prune_ms": ("bench.constraints.prune", None, OPS),
    "sql.plan_ms": ("bench.sql.plan", None, OPS),
    "sql.planned_exec_ms": ("bench.sql.planned_execute", None, OPS),
    "sql.naive_exec_ms": ("bench.sql.naive_execute", None, ("probe",)),
    "sqlite.exec_ms": ("bench.sqlite.execute_unfolded", ("first", False), OPS),
    # a fresh backend loads its tables on its first statement: in set-up on
    # the university workloads, in every operation on corpus-rewrite
    "sqlite.full_load_ms": ("bench.sqlite.execute_unfolded", ("first", True),
                            OPS_AND_SETUP),
    "evaluation.eval_ms": ("bench.evaluation.evaluate_ucq", None, OPS),
    "evaluation.extent_pull_ms": ("bench.evaluation.extent", ("pulls", "nonzero"),
                                  OPS),
    "system.consistency_ms": ("bench.system.inconsistency_witnesses", None, OPS),
}


def _selected(records, condition, phases) -> List[Tuple[float, dict, str]]:
    records = [r for r in records if r[2] in phases]
    if condition is None:
        return records
    key, wanted = condition
    if wanted == "nonzero":
        return [r for r in records if r[1].get(key)]
    return [r for r in records if r[1].get(key) == wanted]


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def layer_metrics(replayer: ReplayExecutor, direct, untraced, traced) -> Dict[str, dict]:
    """Every per-layer metric the traced run measured on this workload,
    as ``name -> {"value", "unit", "n"}``.

    Times are medians of span self time at the reference host speed
    (``hostspeed.py``), with their IQR as ``<name>.iqr``;
    counts and hit ratios come from public accessors read in the untraced
    pass (``cache_stats()``, ``stats()``, global counters), so the replay's
    own untimed calls do not inflate them.
    """
    metrics: Dict[str, dict] = {}

    def put(name, value, unit, n=None):
        if value is not None:
            metrics[name] = {"value": value, "unit": unit, "n": n}

    for name, (span_name, condition, phases) in TIME_METRICS.items():
        records = _selected(replayer.spans.get(span_name, []), condition, phases)
        if records:
            times = [own * 1000 for own, _, _ in records]
            put(name, percentiles.median(times), "ms", len(times))
            put(f"{name}.iqr", percentiles.iqr(times), "ms", len(times))
    classify = replayer.derived.get("system.classify", [])
    if classify:
        put("system.classify_ms", percentiles.median(classify) * 1000, "ms", len(classify))

    def attr_values(span_name, key, phases=OPS):
        return [attrs[key] for _, attrs, phase in replayer.spans.get(span_name, [])
                if key in attrs and phase in phases]

    def mean(values):
        return sum(values) / len(values) if values else None

    put("core.arcs", mean(attr_values("bench.core.build_digraph", "arcs", OPS_AND_SETUP)),
        "count")
    put("core.subsumptions",
        mean(attr_values("bench.core.subsumption_count", "subsumptions")), "count")
    put("rewriting.perfectref_disjuncts",
        mean(attr_values("bench.rewriting.perfect_ref", "disjuncts")), "count")
    put("rewriting.presto_rules",
        mean(attr_values("bench.rewriting.presto_rewrite", "rules")), "count")
    put("rewriting.sql_parts", mean(attr_values("bench.rewriting.unfold", "parts")),
        "count")
    before = sum(attr_values("bench.perf.prune_ucq", "before"))
    put("perf.prune_kept_ratio",
        _ratio(sum(attr_values("bench.perf.prune_ucq", "after")), before), "ratio")
    before = sum(attr_values("bench.constraints.prune", "before"))
    put("constraints.dropped_ratio",
        _ratio(before - sum(attr_values("bench.constraints.prune", "after")), before),
        "ratio")
    capped = attr_values("bench.sql.naive_execute", "capped", ("probe",))
    put("sql.naive_capped_ratio", _ratio(sum(capped), len(capped)), "ratio")
    put("sql.rows_per_answer",
        _ratio(sum(attr_values("bench.sql.planned_execute", "rows")),
               sum(attr_values("bench.sql.planned_execute", "answers"))), "ratio")
    put("sqlite.replica_bytes_per_row",
        mean(replayer.derived.get("sqlite.replica_bytes_per_row", [])), "B")

    totals = direct.totals
    calls = max(untraced.attempted, 1)

    def hit_ratio(prefix):
        return _ratio(totals.get(f"{prefix}hits", 0),
                      totals.get(f"{prefix}hits", 0) + totals.get(f"{prefix}misses", 0))

    put("perf.answer_hit_ratio", hit_ratio("answers."), "ratio")
    put("perf.rewrite_hit_ratio", hit_ratio("rewriting."), "ratio")
    put("sqlite.statement_hit_ratio", hit_ratio("backend.statement_"), "ratio")
    put("sqlite.rows_shipped", totals.get("backend.rows_shipped", 0) / calls, "count")
    put("evaluation.index_builds", direct.index_builds() / calls, "count")
    put("trace.coverage", _ratio(replayer.covered_s, replayer.op_s), "ratio")
    put("trace.overhead_ratio", _ratio(traced.busy_s(), untraced.busy_s()), "ratio")
    return metrics
