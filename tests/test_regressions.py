"""Replay the minimized regression corpus through the full oracle battery.

Every ``.dl`` file under ``tests/regressions/`` is an ontology that either
once made two engines disagree (written by the conformance shrinker via
``repro conformance --regressions tests/regressions``) or pins a corner
of the logic that is easy to lose.  Each file is replayed through the
differential oracle, the metamorphic battery and — when the signature is
small enough — the brute-force finite-model soundness check, so a bug
fixed once can never silently return.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.dllite import parse_tbox
from repro.testkit import (
    diff_engines,
    run_metamorphic_checks,
    semantics_soundness,
)

CORPUS = Path(__file__).parent / "regressions"
FIXTURES = sorted(CORPUS.glob("*.dl"))

#: Hand-checked expected unsatisfiable predicates per fixture (names).
#: Fixtures written by the shrinker need not appear here; the diff tests
#: still cover them.
EXPECTED_UNSAT = {
    "attribute-domain-unsat": {"A", "U"},
    "inverse-role-disjointness": {"P", "Src"},
    "qualified-existential-cycle": set(),
    "unsat-propagation-chain": {"A", "B", "C", "P"},
}


def _load(path: Path):
    return parse_tbox(path.read_text(), name=path.stem)


def test_corpus_is_not_empty():
    assert FIXTURES, "the regression corpus must contain at least one pin"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_engines_agree_on_reproducer(path):
    assert diff_engines(_load(path)) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_expected_unsat_predicates(path):
    expected = EXPECTED_UNSAT.get(path.stem)
    if expected is None:
        pytest.skip("no hand-checked expectation for this reproducer")
    from repro.baselines import make_reasoner

    result = make_reasoner("quonto-graph").classify_named(_load(path))
    assert {node.name for node in result.unsatisfiable} == expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_metamorphic_invariants_hold_on_reproducer(path):
    tbox = _load(path)
    rng = random.Random(f"regression:{path.stem}")
    assert run_metamorphic_checks(tbox, rng) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_classification_is_sound_on_reproducer(path):
    # silently skips (returns []) for signatures too large to enumerate
    assert semantics_soundness(_load(path)) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_reproducer_round_trips_through_serialization(path):
    from repro.dllite import serialize_tbox

    tbox = _load(path)
    assert set(parse_tbox(serialize_tbox(tbox))) == set(tbox)


# ---------------------------------------------------------------------------
# planner replays: every fixture through the planner oracle, plus the
# three pinned scenarios the planner-*.dl fixtures exist for


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_planner_agrees_on_reproducer(path):
    """Planned perfectref-sql equals the naive evaluator on seeded data."""
    from repro.testkit import diff_planner
    from repro.testkit.generators import random_abox, random_queries

    tbox = _load(path)
    rng = random.Random(f"planner-regression:{path.stem}")
    abox = random_abox(rng, tbox)
    queries = random_queries(rng, tbox)
    assert diff_planner(tbox, abox, queries) == []


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_backend_agrees_on_reproducer(path):
    """All five answering paths agree on seeded data with literal names."""
    from repro.testkit import diff_backend
    from repro.testkit.generators import (
        random_abox,
        random_queries,
        with_literal_names,
    )

    tbox = _load(path)
    rng = random.Random(f"backend-regression:{path.stem}")
    abox = with_literal_names(random_abox(rng, tbox))
    queries = random_queries(rng, tbox)
    assert diff_backend(tbox, abox, queries) == []


def _mapped_system(tbox, tables):
    """An OBDASystem over hand-built unary tables (name -> rows)."""
    from repro.dllite import AtomicConcept
    from repro.obda import Database, MappingAssertion, MappingCollection, TargetAtom
    from repro.obda.mapping import IriTemplate
    from repro.obda.system import OBDASystem

    database = Database("planner-regression")
    mappings = MappingCollection()
    for name, rows in sorted(tables.items()):
        database.create_table(f"t_{name}", ["s"], sorted(rows))
        mappings.add(
            MappingAssertion(
                f"SELECT s FROM t_{name}",
                [TargetAtom(AtomicConcept(name), (IriTemplate("{s}"),))],
            )
        )
    return OBDASystem(tbox, mappings=mappings, database=database)


def _answers(system, text, method="perfectref-sql"):
    from repro.obda.cq_parser import parse_query

    return system.certain_answers(parse_query(text), method=method)


def test_planner_regression_empty_table():
    tbox = _load(CORPUS / "planner-empty-table.dl")
    system = _mapped_system(
        tbox, {"Professor": [], "Teacher": [("t1",), ("t2",)]}
    )
    naive = _mapped_system(
        tbox, {"Professor": [], "Teacher": [("t1",), ("t2",)]}
    )
    naive.use_planner = False
    assert _answers(system, "q(x) :- Teacher(x)") == _answers(
        naive, "q(x) :- Teacher(x)"
    )
    assert len(_answers(system, "q(x) :- Teacher(x)")) == 2
    # boolean query over the empty extent: no rows, so no () answer
    assert _answers(system, "q() :- Professor(x)") == set()
    assert _answers(naive, "q() :- Professor(x)") == set()


def test_planner_regression_cross_product_only():
    tbox = _load(CORPUS / "planner-cross-product.dl")
    tables = {"A": [("a1",), ("a2",)], "B": [("b1",), ("b2",), ("b3",)]}
    system = _mapped_system(tbox, tables)
    naive = _mapped_system(tbox, tables)
    naive.use_planner = False
    query = "q(x, y) :- A(x), B(y)"
    planned = _answers(system, query)
    assert planned == _answers(naive, query)
    assert len(planned) == 6  # honest cross product, exact column order


def test_planner_regression_all_redundant_disjuncts_pruned():
    tbox = _load(CORPUS / "planner-constraint-prune.dl")
    shared = [("p1",), ("p2",), ("p3",)]
    tables = {
        "Professor": shared,
        "Lecturer": shared[:1],
        "Teacher": shared + [("t9",)],
    }
    # The rewriting is Teacher ∨ Professor ∨ Lecturer, and both
    # specializations are extensionally contained in Teacher: the SQL
    # paths run all three disjuncts and answer as the KB does.
    from repro.dllite import ABox, AtomicConcept
    from repro.dllite.abox import ConceptAssertion, Individual
    from repro.obda.system import OBDASystem

    abox = ABox(
        [
            ConceptAssertion(AtomicConcept(name), Individual(row[0]))
            for name, rows in tables.items()
            for row in rows
        ]
    )
    query = "q(x) :- Teacher(x)"
    expected = _answers(OBDASystem(tbox, abox=abox), query, method="perfectref")
    assert len(expected) == 4
    for use_planner, method in (
        (True, "perfectref-sql"),
        (False, "perfectref-sql"),
        (True, "perfectref-sqlite"),
    ):
        system = _mapped_system(tbox, tables)
        system.use_planner = use_planner
        assert _answers(system, query, method=method) == expected


def test_backend_regression_mixed_type_keys():
    """The pinned planner-sqlite-mixed-keys scenario, replayed explicitly.

    Mixed-type cells (1, "1", 1.0, True, None) must survive the sqlite
    round trip: selections and joins match cells by their string forms,
    and distinct IRI string forms stay apart in the answers.
    """
    from repro.dllite import AtomicConcept, AtomicRole
    from repro.obda import Database, MappingAssertion, MappingCollection, TargetAtom
    from repro.obda.mapping import IriTemplate
    from repro.obda.system import OBDASystem

    tbox = _load(CORPUS / "planner-sqlite-mixed-keys.dl")
    rows = {
        "staff": (["id", "role"], [(1, "prof"), ("1", "lect"), (1.0, "prof"),
                                   (True, "lect"), (None, "prof"), (2, "prof")]),
        "teaching": (["sid", "course"], [(1, "logic"), ("1", "sets"),
                                         (2.0, "compilers")]),
    }

    def build():
        database = Database("sqlite-regression")
        for name, (columns, data) in sorted(rows.items()):
            database.create_table(name, columns, list(data))
        mappings = MappingCollection(
            [
                MappingAssertion(
                    "SELECT id FROM staff WHERE role = 'prof'",
                    [TargetAtom(AtomicConcept("Professor"),
                                (IriTemplate("person/{id}"),))],
                ),
                MappingAssertion(
                    "SELECT id FROM staff WHERE role = 'lect'",
                    [TargetAtom(AtomicConcept("Lecturer"),
                                (IriTemplate("person/{id}"),))],
                ),
                MappingAssertion(
                    "SELECT sid, course FROM teaching",
                    [TargetAtom(AtomicRole("teaches"),
                                (IriTemplate("person/{sid}"),
                                 IriTemplate("course/{course}")))],
                ),
            ]
        )
        return OBDASystem(tbox, mappings=mappings, database=database)

    outcomes = {}
    for label, method, planner in (
        ("sqlite", "perfectref-sqlite", True),
        ("planned", "perfectref-sql", True),
        ("naive", "perfectref-sql", False),
    ):
        system = build()
        system.use_planner = planner
        outcomes[label] = {
            text: _answers(system, text, method=method)
            for text in (
                "q(x) :- Teacher(x)",
                "q(x, y) :- teaches(x, y)",
                "q(y) :- Professor(x), teaches(x, y)",
                "q() :- Lecturer(x)",
            )
        }
    assert outcomes["sqlite"] == outcomes["naive"]
    assert outcomes["planned"] == outcomes["naive"]
    # 1 / "1" / 1.0 / True render three IRIs (1 and "1" share one), and
    # each stays a distinct certain answer
    teachers = {answer[0].name for answer in outcomes["sqlite"]["q(x) :- Teacher(x)"]}
    assert {"person/1", "person/1.0", "person/True", "person/None"} <= teachers
