"""The ``repro explain`` pipeline: one traced query, rendered as a span tree.

``EXPLAIN`` for the OBDA stack: run a single query end-to-end with
tracing on and show every stage the pipeline actually executed —
classification (and whether it came from the shared cache), rewriting
(with disjunct counts before/after subsumption pruning), unfolding (SQL
parts), evaluation (extent pulls, index builds, answers, and each
``join`` span's probe order, key positions and estimated fan-outs, over
extents or, under ``sql-eval``, ``extent-pull`` and ``extent-delta``,
over the source tables), the sqlite
pushdown (SQL text, statement cache, rows shipped, load and execute
times, all read from its ``backend-exec`` and ``backend-load`` spans) —
with per-span wall times, statuses, and the process metrics snapshot.

The data side is synthesized: a seeded random ABox over the ontology's
signature, lowered through direct GAV mappings into relational tables.
That makes ``explain`` work on *any* ontology file (or corpus profile)
without hand-written mappings, while still exercising the real unfold →
SQL path.

:func:`run_explain` returns an :class:`ExplainReport`;
:func:`render_explain` renders it for humans and
:func:`explain_jsonlines` exports it as schema-valid JSON-lines
(see :mod:`repro.obs.schema`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..errors import ReproError, TimeoutExceeded
from .metrics import global_metrics
from .trace import Tracer, render_span_tree, use_tracer

__all__ = ["ExplainReport", "run_explain", "render_explain", "explain_jsonlines"]


@dataclass
class ExplainReport:
    """Everything one traced query run produced."""

    query: str
    method: str
    ontology: str
    seed: int
    status: str = "ok"  # "ok" | "error" | "timeout"
    detail: str = ""
    answers: int = 0
    engine: str = ""
    tracer: Tracer = field(default_factory=Tracer)
    metrics: Dict[str, Any] = field(default_factory=dict)
    fallback: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _pick_query(rng: random.Random, tbox) -> object:
    from ..testkit.generators import FuzzProfile, random_queries

    sizes = FuzzProfile(max_queries=1)
    return random_queries(rng, tbox, sizes)[0]


def run_explain(
    tbox,
    query: Union[None, str, object] = None,
    method: str = "perfectref-sql",
    seed: int = 7,
    budget: Optional[float] = None,
    fallback: bool = False,
    max_individuals: int = 40,
    max_assertions: int = 200,
) -> ExplainReport:
    """Run one query over *tbox* with tracing on; never raises pipeline errors.

    A budget exhaustion or pipeline failure mid-stage closes every open
    span (status ``timeout``/``error``) and is reported on the returned
    :class:`ExplainReport` instead of propagating, so the trace of a
    failed run is still complete and exportable.

    With ``fallback=True`` the TBox is additionally classified through
    the registry's resilient fallback chain inside the trace, so the
    per-engine budget slices show up as spans and the chain's
    :class:`~repro.runtime.fallback.ChainResult` metadata lands in the
    report.
    """
    from ..obda.cq_parser import parse_query
    from ..testkit.generators import FuzzProfile, direct_mapping_system, random_abox

    rng = random.Random(seed)
    sizes = FuzzProfile(
        max_individuals=max_individuals, max_assertions=max_assertions
    )
    abox = random_abox(rng, tbox, profile=sizes)
    system = direct_mapping_system(tbox, abox)
    if query is None:
        ucq = _pick_query(rng, tbox)
    elif isinstance(query, str):
        ucq = parse_query(query)
    else:
        ucq = query

    tracer = Tracer(name=f"explain:{tbox.name}")
    report = ExplainReport(
        query=str(ucq).replace("\n", " | "),
        method=method,
        ontology=tbox.name,
        seed=seed,
        engine=method,
        tracer=tracer,
    )
    with use_tracer(tracer):
        with tracer.span("explain") as root:
            root.annotate(ontology=tbox.name, method=method, seed=seed)
            try:
                if fallback:
                    from ..baselines.registry import make_reasoner

                    import warnings

                    chain = make_reasoner("fallback-chain")
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        result = chain.classify_with_report(tbox)
                    report.fallback = result.to_dict()
                    report.engine = f"fallback:{result.served_by}"
                answers = system.certain_answers(ucq, method=method, budget=budget)
                report.answers = len(answers)
                root.set("answers", len(answers))
            except TimeoutExceeded as error:
                report.status, report.detail = "timeout", str(error)
                root.set_status("timeout", str(error))
            except ReproError as error:
                report.status = "error"
                report.detail = f"{type(error).__name__}: {error}"
                root.set_status("error", report.detail)
    report.metrics = global_metrics().snapshot()
    return report


def render_explain(report: ExplainReport, metrics: bool = True) -> str:
    """Human-readable rendering: header, span tree, metrics highlights."""
    lines = [
        f"explain: {report.query}",
        f"  ontology: {report.ontology} (seed {report.seed})",
        f"  method:   {report.method}   engine: {report.engine}",
        f"  status:   {report.status}"
        + (f" ({report.detail})" if report.detail else "")
        + (f"   answers: {report.answers}" if report.ok else ""),
        "",
        render_span_tree(report.tracer),
    ]
    pushdowns = [span for span in report.tracer.spans if span.name == "backend-exec"]
    if pushdowns:
        # execute is the backend-exec span's time outside its backend-load
        info = pushdowns[-1].attributes
        loads = [c for c in pushdowns[-1].children if c.name == "backend-load"]
        load_s = loads[0].elapsed_s if loads else 0.0
        lines.append("")
        lines.append(
            f"pushdown backend ({info.get('backend', '?')}): "
            f"{info.get('parts', 0)} part(s), "
            f"{info.get('rows_fetched', 0)} row(s) fetched, "
            f"statement cache {info.get('statement_cache', '?')}"
        )
        lines.append(
            f"  load {load_s * 1000:.1f}ms, "
            f"execute {(pushdowns[-1].elapsed_s - load_s) * 1000:.1f}ms"
        )
        tables = loads[0].attributes.get("rows_shipped") if loads else None
        if tables:
            shipped = ", ".join(
                f"{name}+{count}" for name, count in sorted(tables.items())
            )
            lines.append(f"  rows shipped: {shipped}")
        for text_line in str(info.get("sql", "")).splitlines():
            lines.append(f"  | {text_line}")
        for index, params in enumerate(info.get("parameters") or ()):
            lines.append(f"  parameters of statement {index + 1}: {params!r}")
    if report.fallback is not None:
        lines.append("")
        lines.append(
            f"fallback chain: served by {report.fallback['served_by']} "
            f"(degraded: {report.fallback['degraded']})"
        )
        for attempt in report.fallback["attempts"]:
            lines.append(
                f"  {attempt['engine']}: {attempt['outcome']} "
                f"in {attempt['elapsed_s'] * 1000:.1f}ms"
                + (f" — {attempt['detail']}" if attempt.get("detail") else "")
            )
    if metrics and report.metrics:
        lines.append("")
        lines.append("metrics snapshot:")
        counters = report.metrics.get("counters", {})
        for name, value in sorted(counters.items()):
            lines.append(f"  {name} = {value}")
        caches = report.metrics.get("perf.caches", {})
        if isinstance(caches, dict):
            from ..perf.cache import format_stats_line

            for name in sorted(caches):
                lines.append(f"  {format_stats_line(caches[name])}")
    return "\n".join(lines)


def explain_records(report: ExplainReport) -> List[Dict[str, Any]]:
    """The report as a list of JSON-serializable records (header first)."""
    records: List[Dict[str, Any]] = [
        {
            "kind": "explain",
            "query": report.query,
            "ontology": report.ontology,
            "method": report.method,
            "engine": report.engine,
            "seed": report.seed,
            "status": report.status,
            "detail": report.detail,
            "answers": report.answers,
            "fallback": report.fallback,
            "spans": len(report.tracer.spans),
        }
    ]
    records.extend(span.to_dict() for span in report.tracer.spans)
    records.append({"kind": "metrics", "snapshot": report.metrics})
    return records


def explain_jsonlines(report: ExplainReport) -> str:
    """The report as JSON-lines (validated by :mod:`repro.obs.schema`)."""
    return "\n".join(
        json.dumps(record, sort_keys=True, default=str)
        for record in explain_records(report)
    )
