"""Tests for repro.obs.explain — the traced end-to-end query pipeline.

Includes the tracing-under-failure coverage: a budget exhaustion
mid-stage, a failing retry loop and an inconsistent ontology must all
leave a complete trace — every span closed with status ``error`` or
``timeout``, no dangling spans, and a JSON-lines export that still
validates.
"""

import json

import pytest

from repro.dllite import parse_tbox
from repro.errors import PermanentSourceError, TransientSourceError
from repro.obs.explain import (
    ExplainReport,
    explain_jsonlines,
    explain_records,
    render_explain,
    run_explain,
)
from repro.obs.schema import validate_trace_lines
from repro.obs.trace import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.runtime import RetryPolicy


@pytest.fixture
def university():
    return parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches^- isa Course
        """,
        name="university",
    )


PIPELINE_STAGES = ("certain-answers", "consistency", "classify", "rewrite",
                   "unfold", "sql-eval")


def test_explain_covers_the_whole_pipeline(university):
    report = run_explain(university, query="q(x) :- Teacher(x)")
    assert report.ok
    assert report.answers > 0
    names = [span.name for span in report.tracer.spans]
    for stage in PIPELINE_STAGES:
        assert stage in names, f"missing pipeline stage span {stage!r}"
    # Cache outcome attributes are on the spans (first run: everything misses).
    by_name = {span.name: span for span in report.tracer.spans}
    assert by_name["rewrite"].attributes["cache"] == "miss"
    assert by_name["unfold"].attributes["sql_parts"] >= 1
    assert by_name["sql-eval"].attributes["answers"] == report.answers
    assert not report.tracer.open_spans
    # The tracer was installed only for the run.
    assert current_tracer() is NULL_TRACER


def test_explain_export_is_valid_jsonlines(university):
    report = run_explain(university, query="q(x) :- Person(x)")
    text = explain_jsonlines(report)
    assert validate_trace_lines(text) == []
    header = json.loads(text.splitlines()[0])
    assert header["kind"] == "explain"
    assert header["ontology"] == "university"
    assert header["status"] == "ok"
    assert header["spans"] == len(report.tracer.spans)
    tail = json.loads(text.splitlines()[-1])
    assert tail["kind"] == "metrics"
    assert isinstance(tail["snapshot"], dict)


def test_explain_generates_a_query_when_none_given(university):
    report = run_explain(university, seed=11)
    assert report.query  # a seeded generated query was used
    again = run_explain(university, seed=11)
    assert again.query == report.query  # fully deterministic


def test_explain_surfaces_the_sqlite_backend(university):
    report = run_explain(
        university, query="q(x) :- Teacher(x)", method="perfectref-sqlite"
    )
    assert report.ok
    assert report.answers > 0
    (pushdown,) = [s for s in report.tracer.spans if s.name == "backend-exec"]
    assert pushdown.attributes["backend"] == "sqlite"
    assert pushdown.attributes["parts"] >= 1
    assert pushdown.attributes["statement_cache"] == "miss"
    assert pushdown.attributes["rows_fetched"] >= report.answers
    assert "SELECT" in pushdown.attributes["sql"]
    (load,) = pushdown.children
    assert load.name == "backend-load"
    shipped = load.attributes["rows_shipped"]
    assert shipped and all(count > 0 for count in shipped.values())
    rendered = render_explain(report)
    assert "pushdown backend (sqlite)" in rendered
    assert "statement cache miss" in rendered
    assert "load " in rendered and "execute " in rendered
    assert "rows shipped: " in rendered
    assert "  | SELECT" in rendered
    # the SQL text is printed below the tree, not inline on its span
    assert "sql=<" in rendered
    spans = [json.loads(line) for line in explain_jsonlines(report).splitlines()]
    exported = [r for r in spans if r.get("name") == "backend-exec"]
    assert exported[0]["attributes"]["sql"] == pushdown.attributes["sql"]
    assert validate_trace_lines(explain_jsonlines(report)) == []


def test_explain_prints_the_parameters_bound_to_a_template_statement(university):
    report = run_explain(
        university, query="q(x) :- teaches(x, 'a1')", method="perfectref-sqlite"
    )
    assert report.ok
    (unfold,) = [s for s in report.tracer.spans if s.name == "unfold"]
    assert unfold.attributes["parameters"] == 1
    (pushdown,) = [s for s in report.tracer.spans if s.name == "backend-exec"]
    # the statement reads the constant as a ? bound per call
    assert "'a1'" not in pushdown.attributes["sql"]
    assert pushdown.attributes["parameters"] == [["a1"]]
    assert "  parameters of statement 1: ['a1']" in render_explain(report)
    assert validate_trace_lines(explain_jsonlines(report)) == []


def test_explain_timeout_closes_all_spans(university):
    report = run_explain(university, query="q(x) :- Teacher(x)", budget=0.0)
    assert report.status == "timeout"
    assert not report.ok
    assert not report.tracer.open_spans
    root = report.tracer.roots[0]
    assert root.status == "timeout"
    # The export of the failed run still validates.
    assert validate_trace_lines(explain_jsonlines(report)) == []


def test_explain_reports_pipeline_errors_without_raising():
    # The random ABox violates the disjointness, so the synthesized
    # sources are inconsistent and certain_answers raises internally.
    contradictory = parse_tbox(
        "Student isa Person\nTeacher isa Person\nStudent isa not Teacher",
        name="contradictory",
    )
    report = run_explain(contradictory, query="q(x) :- Person(x)")
    assert report.status == "error"
    assert "InconsistentOntology" in report.detail
    assert not report.tracer.open_spans
    assert validate_trace_lines(explain_jsonlines(report)) == []


def test_explain_fallback_records_chain_metadata(university):
    report = run_explain(university, query="q(x) :- Teacher(x)", fallback=True)
    assert report.ok
    assert report.engine.startswith("fallback:")
    assert report.fallback is not None
    assert report.fallback["attempts"]
    names = [span.name for span in report.tracer.spans]
    assert "fallback-chain" in names
    assert any(name.startswith("engine:") for name in names)


def test_render_explain_is_human_readable(university):
    report = run_explain(university, query="q(x) :- Teacher(x)")
    rendered = render_explain(report)
    assert "explain: q(x) :- Teacher(x)" in rendered
    assert "certain-answers" in rendered
    assert "sql-eval" in rendered
    assert "metrics snapshot:" in rendered
    assert "ms" in rendered


def test_exhausted_retries_leave_a_complete_trace():
    tracer = Tracer("retry-failure")

    def always_down():
        raise TransientSourceError("unreachable")

    policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
    with use_tracer(tracer):
        with pytest.raises(PermanentSourceError):
            policy.call(always_down, task="probe")
    attempts = [span for span in tracer.spans if span.name == "source-call"]
    assert len(attempts) == 3
    assert all(span.status == "error" for span in attempts)
    assert [span.attributes["attempt"] for span in attempts] == [1, 2, 3]
    assert not tracer.open_spans
    assert validate_trace_lines(tracer.to_jsonlines()) == []


def test_explain_records_shape():
    report = ExplainReport(
        query="q(x) :- A(x)", method="perfectref", ontology="t", seed=1
    )
    records = explain_records(report)
    assert records[0]["kind"] == "explain"
    assert records[-1]["kind"] == "metrics"
