"""End-to-end tests for the conformance runner and its CLI command."""

from __future__ import annotations

import random

import repro.obda.system as system_module
from repro.cli import main
from repro.dllite import parse_tbox
from repro.dllite.abox import ABox, ConceptAssertion, Individual, RoleAssertion
from repro.dllite.syntax import AtomicConcept, AtomicRole
from repro.obda.cq_parser import parse_query
from repro.obda.system import OBDASystem
from repro.testkit import ConformanceConfig, ConformanceReport, run_conformance
from repro.testkit.conformance import _consistent_abox, _obda_diff
from repro.testkit.generators import (
    FuzzProfile,
    append_direct,
    direct_mapping_system,
    random_abox,
    random_appends,
    random_tiny_tbox,
    with_literal_names,
)

#: Small-but-real campaign knobs: every check family runs at least once.
_FAST = dict(
    rounds=3,
    semantics_every=1,
    obda_every=1,
    profile=FuzzProfile(max_concepts=12, max_roles=4),
)


def test_campaign_is_conformant_and_counts_checks():
    report = run_conformance(ConformanceConfig(seed=7, **_FAST))
    assert report.ok
    assert report.rounds_run == 3
    # per round: diff + metamorphic, plus semantics (x2 checks) and obda
    assert report.checks_run >= 3 * 3
    assert not report.stopped_early
    assert "conformant" in report.summary()


def test_campaign_is_deterministic():
    first = run_conformance(ConformanceConfig(seed=11, **_FAST))
    second = run_conformance(ConformanceConfig(seed=11, **_FAST))
    assert (first.rounds_run, first.checks_run) == (
        second.rounds_run,
        second.checks_run,
    )
    assert [str(p) for p in first.disagreements] == [
        str(p) for p in second.disagreements
    ]


def test_exhausted_budget_is_an_orderly_early_stop():
    report = run_conformance(
        ConformanceConfig(seed=7, rounds=50, budget_s=0.0)
    )
    assert report.stopped_early
    assert report.rounds_run < 50
    assert report.ok  # an early stop is not a disagreement
    assert "stopped early" in report.summary()


def test_report_summary_mentions_disagreements():
    from repro.testkit import Disagreement

    report = ConformanceReport(config=ConformanceConfig())
    report.disagreements.append(Disagreement("unsat", "a", "b", "detail"))
    assert not report.ok
    assert "1 disagreement(s)" in report.summary()


def _teaching_abox() -> ABox:
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("A"), Individual("a0")))
    abox.add(RoleAssertion(AtomicRole("P"), Individual("a0"), Individual("a1")))
    abox.add(RoleAssertion(AtomicRole("P"), Individual("a2"), Individual("a1")))
    return abox


def test_appends_are_lowered_as_the_direct_mapping_lowers_its_tables():
    tbox = parse_tbox("role P\nA isa exists P\n")
    system = direct_mapping_system(tbox, with_literal_names(_teaching_abox()))
    # t_A is the first table (raw cells), t_P the second (typed cells)
    assert [table.name for table in system.database.tables()] == ["t_A", "t_P"]
    append_direct(
        system,
        [
            ConceptAssertion(AtomicConcept("A"), Individual("True")),
            RoleAssertion(AtomicRole("P"), Individual("True"), Individual("1.0")),
        ],
    )
    assert system.database["t_A"].rows[-1] == ("True",)
    assert [type(cell) for cell in system.database["t_P"].rows[-1]] == [bool, float]


def test_random_appends_prefer_the_predicates_the_queries_ask():
    queries = [parse_query("q(x) :- P(x, y)")]
    appends = random_appends(random.Random(3), _teaching_abox(), 5, queries)
    assert len(appends) == 5
    assert all(isinstance(assertion, RoleAssertion) for assertion in appends)


def test_obda_step_diffs_the_extended_answers_after_appends(monkeypatch):
    tbox = parse_tbox("role P\nA isa exists P\n")
    queries = [parse_query("q(x) :- A(x)"), parse_query("q(y) :- P(x, y)")]
    appends = [RoleAssertion(AtomicRole("P"), Individual("a1"), Individual("new"))]
    # one shape with two constants: the second rewriting is a template hit
    bound = [parse_query("q(x) :- P(x, 'a1')"), parse_query("q(x) :- P(x, 'new')")]
    assert _obda_diff(tbox, _teaching_abox(), queries, appends, bound, None) == []
    # extensions that drop what the appended rows add are caught, the
    # pushed-down delta statement's as well as the in-memory ones
    for reader, caught in (
        (system_module._OverExtents, "sql/perfectref"),
        (system_module._PushedDown, "sql/perfectref-sqlite"),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(reader, "extend", lambda self, budget, delta: set())
            problems = _obda_diff(tbox, _teaching_abox(), queries, appends, (), None)
        assert {problem.kind for problem in problems} == {"answers"}
        assert caught in {problem.left for problem in problems}, problems
    # a template hit served without its own constants answers for the
    # cached ones on every warm system: the cache-free one catches it
    with monkeypatch.context() as patched:
        patched.setattr(system_module, "_bound", lambda cached, template: cached[0])
        problems = _obda_diff(tbox, _teaching_abox(), [], appends, bound, None)
    assert problems and all(problem.right == "cold/perfectref" for problem in problems)


def test_the_drawn_abox_is_consistent():
    """Steps 4 and 5 drop seeded assertions from the drawn ABox until the
    knowledge base over it is consistent, so their diffs reach answers."""
    profile = FuzzProfile()
    dropped = 0
    for seed in range(40):
        rng = random.Random(seed)
        tbox = random_tiny_tbox(rng, profile)
        state = rng.getstate()
        drawn = random_abox(rng, tbox, profile)
        rng.setstate(state)
        abox = _consistent_abox(rng, tbox, profile)
        assert set(abox) <= set(drawn)
        assert OBDASystem(tbox, abox=abox).is_consistent()
        dropped += len(drawn) - len(abox)
    assert dropped, "no drawn ABox was inconsistent: the test proves nothing"


class TestCli:
    def test_conformance_command_smoke(self, capsys):
        code = main(
            [
                "conformance",
                "--seed",
                "7",
                "--rounds",
                "2",
                "--semantics-every",
                "1",
                "--obda-every",
                "1",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "conformance seed=7" in output
        assert "conformant" in output

    def test_engine_subset_and_budget_flags(self, capsys):
        code = main(
            [
                "conformance",
                "--seed",
                "3",
                "--rounds",
                "2",
                "--engines",
                "quonto-graph,saturation",
                "--budget",
                "30",
                "--no-shrink",
            ]
        )
        assert code == 0
        assert "conformance seed=3" in capsys.readouterr().out

    def test_regression_dir_flag(self, tmp_path, capsys):
        code = main(
            [
                "conformance",
                "--seed",
                "5",
                "--rounds",
                "1",
                "--regressions",
                str(tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        # a conformant run writes no reproducers
        assert list(tmp_path.iterdir()) == []
