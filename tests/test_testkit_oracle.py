"""Unit tests for the differential oracle layer of ``repro.testkit``."""

from __future__ import annotations

import random

import pytest

from repro.baselines import make_reasoner
from repro.baselines.base import NamedClassification
from repro.dllite import (
    AtomicConcept,
    ConceptInclusion,
    NegatedConcept,
    TBox,
    parse_tbox,
)
from repro.errors import TimeoutExceeded
from repro.obda.system import OBDASystem
from repro.runtime.budget import Budget
from repro.testkit import (
    DEFAULT_ENGINES,
    Disagreement,
    diff_answers,
    diff_backend,
    diff_classifications,
    diff_engines,
    semantics_soundness,
)
from repro.testkit.generators import (
    FuzzProfile,
    direct_mapping_system,
    random_abox,
    random_profile_tbox,
    random_queries,
    random_tiny_tbox,
    with_literal_names,
)

A, B, C = (AtomicConcept(name) for name in "ABC")


def _named(subs, unsat=()):
    return NamedClassification(frozenset(subs), frozenset(unsat))


class TestDiffClassifications:
    def test_identical_outputs_conform(self):
        result = _named([ConceptInclusion(A, B)], [C])
        assert diff_classifications("ref", result, "cand", result) == []

    def test_extra_subsumption_is_reported(self):
        reference = _named([ConceptInclusion(A, B)])
        candidate = _named([ConceptInclusion(A, B), ConceptInclusion(B, C)])
        problems = diff_classifications("ref", reference, "cand", candidate)
        assert [p.kind for p in problems] == ["classification"]
        assert "derives" in problems[0].detail

    def test_missing_subsumption_reported_only_for_complete_engines(self):
        reference = _named([ConceptInclusion(A, B), ConceptInclusion(B, C)])
        candidate = _named([ConceptInclusion(A, B)])
        complete = diff_classifications("ref", reference, "cand", candidate)
        assert [p.kind for p in complete] == ["classification"]
        assert "misses" in complete[0].detail
        incomplete = diff_classifications(
            "ref", reference, "cand", candidate, candidate_complete=False
        )
        assert incomplete == []

    def test_unsat_divergence_reported(self):
        reference = _named([], [A])
        candidate = _named([], [B])
        kinds = sorted(
            p.kind for p in diff_classifications("ref", reference, "cand", candidate)
        )
        assert kinds == ["unsat", "unsat"]


class TestDiffEngines:
    def test_default_lineup_conforms_on_fixture(self, county_tbox):
        assert diff_engines(county_tbox) == []

    def test_default_lineup_conforms_on_random_profile(self):
        rng = random.Random("testkit-oracle")
        for _ in range(3):
            tbox = random_profile_tbox(rng, FuzzProfile(max_concepts=15))
            assert diff_engines(tbox) == []

    def test_unsound_engine_is_caught(self, county_tbox):
        class Overclaiming:
            name = "overclaiming"
            complete = True

            def classify_named(self, tbox, watch=None):
                honest = make_reasoner("quonto-graph").classify_named(
                    tbox, watch=watch
                )
                bogus = ConceptInclusion(
                    AtomicConcept("Municipality"), AtomicConcept("State")
                )
                return NamedClassification(
                    honest.subsumptions | {bogus}, honest.unsatisfiable
                )

        problems = diff_engines(county_tbox, ["quonto-graph", Overclaiming()])
        assert any(
            p.kind == "classification" and p.left == "overclaiming"
            for p in problems
        )

    def test_untyped_crash_is_a_finding(self, county_tbox):
        class Crashing:
            name = "crashing"
            complete = True

            def classify_named(self, tbox, watch=None):
                raise KeyError("boom")

        problems = diff_engines(county_tbox, ["quonto-graph", Crashing()])
        assert [p.kind for p in problems] == ["error"]
        assert "KeyError" in problems[0].detail

    def test_typed_errors_propagate(self, county_tbox):
        budget = Budget(0.0, task="immediate")
        with pytest.raises(TimeoutExceeded):
            diff_engines(county_tbox, DEFAULT_ENGINES, budget=budget)


class TestSemanticsSoundness:
    def test_sound_classification_has_no_countermodels(self):
        rng = random.Random("tiny-sound")
        for _ in range(4):
            tiny = random_tiny_tbox(rng)
            assert semantics_soundness(tiny) == []

    def test_planted_unsound_claim_is_refuted(self):
        tbox = TBox([ConceptInclusion(A, B)], name="planted")
        tbox.declare(C)
        bogus = _named([ConceptInclusion(A, B), ConceptInclusion(B, C)])
        problems = semantics_soundness(tbox, classification=bogus)
        assert [p.kind for p in problems] == ["semantics"]
        assert "countermodel" in problems[0].detail

    def test_large_signatures_are_skipped(self):
        tbox = TBox(
            [ConceptInclusion(AtomicConcept(f"X{i}"), AtomicConcept(f"X{i+1}"))
             for i in range(8)],
            name="wide",
        )
        assert semantics_soundness(tbox, max_signature=5) == []


class TestDiffAnswers:
    def _systems_and_queries(self, seed="obda-agree"):
        rng = random.Random(seed)
        tbox = random_tiny_tbox(rng)
        abox = random_abox(rng, tbox)
        queries = random_queries(rng, tbox)
        systems = {
            "kb": OBDASystem(tbox, abox=abox),
            "sql": direct_mapping_system(tbox, abox),
        }
        return systems, queries

    def test_pipelines_agree_end_to_end(self):
        systems, queries = self._systems_and_queries()
        problems = diff_answers(
            systems, queries, methods=("perfectref", "perfectref-sql", "presto")
        )
        assert problems == []

    def test_dropped_data_is_detected(self):
        tbox = parse_tbox("Student isa Person", name="drop")
        from repro.dllite.abox import ABox, ConceptAssertion, Individual

        full = ABox([ConceptAssertion(AtomicConcept("Student"), Individual("a"))])
        systems = {
            "kb": OBDASystem(tbox, abox=full),
            "sql": direct_mapping_system(tbox, ABox()),
        }
        from repro.obda.cq_parser import parse_query

        query = parse_query("q(x) :- Person(x)")
        problems = diff_answers(systems, [query], methods=("perfectref",))
        assert len(problems) == 1
        assert problems[0].kind == "answers"

    def test_disagreement_renders_readably(self):
        problem = Disagreement("answers", "kb/presto", "sql/perfectref", "gap", "t")
        assert "kb/presto" in str(problem) and "on t" in str(problem)


class TestDiffBackend:
    @staticmethod
    def _abox():
        from repro.dllite.abox import ABox, ConceptAssertion, Individual, RoleAssertion
        from repro.dllite.syntax import AtomicRole

        a0, a1, a2 = (Individual(f"a{i}") for i in range(3))
        P, Q = AtomicRole("P"), AtomicRole("Q")
        return with_literal_names(
            ABox(
                [
                    ConceptAssertion(A, a0),
                    ConceptAssertion(B, a2),
                    RoleAssertion(P, a0, a1),
                    RoleAssertion(P, a1, a2),
                    RoleAssertion(Q, a2, a0),
                ]
            )
        )

    def test_literal_names_are_typed_cells_in_every_other_table(self):
        tbox = parse_tbox("role P\nrole Q\nA isa exists P\nB isa A", name="lit")
        database = direct_mapping_system(tbox, self._abox()).database
        # tables in creation order t_A, t_B, t_P, t_Q: the 2nd and 4th typed
        assert database.table("t_A").rows == [("1",)]
        assert database.table("t_B").rows == [(True,)]
        assert sorted(database.table("t_P").rows) == [
            ("1", "1.0"), ("1.0", "True")
        ]
        assert database.table("t_Q").rows == [(True, 1)]

    def test_five_paths_agree_on_literal_names(self):
        from repro.obda.cq_parser import parse_query

        tbox = parse_tbox("role P\nrole Q\nA isa exists P\nB isa A", name="lit")
        queries = [
            parse_query(text)
            for text in (
                "q(x) :- P(x, y), P(y, z)",
                "q(x) :- P(x, y), Q(y, z)",
                "q(y) :- A(x), P(x, y)",
                "q(x) :- Q(x, y), A(y)",
            )
        ]
        assert diff_backend(tbox, self._abox(), queries) == []
