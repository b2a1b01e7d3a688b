"""Unit tests for the baseline reasoners (Figure 1 comparators)."""

import random

import pytest

from repro.baselines import (
    FIGURE1_COLUMNS,
    REASONER_FACTORIES,
    ConsequenceBasedReasoner,
    DenseMatrixTableauReasoner,
    GraphReasoner,
    MemoizedTableauReasoner,
    NamedClassification,
    PairwiseTableauReasoner,
    make_reasoner,
)
from repro.dllite import (
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    RoleInclusion,
    parse_tbox,
)
from repro.errors import TimeoutExceeded
from repro.runtime.budget import Budget
from tests.conftest import make_random_tbox

COMPLETE_ENGINES = [
    "quonto-graph",
    "tableau-pairwise",
    "tableau-memoized",
    "tableau-dense",
    "saturation",
]


@pytest.mark.parametrize("engine", COMPLETE_ENGINES)
def test_simple_hierarchy(engine, county_tbox):
    result = make_reasoner(engine).classify_named(county_tbox)
    municipality, county = AtomicConcept("Municipality"), AtomicConcept("County")
    assert ConceptInclusion(municipality, county) in result.subsumptions
    assert RoleInclusion(
        AtomicRole("isPartOf"), AtomicRole("locatedIn")
    ) in result.subsumptions
    assert result.unsatisfiable == frozenset()


@pytest.mark.parametrize("seed", range(30))
def test_complete_engines_agree_on_random_tboxes(seed):
    tbox = make_random_tbox(random.Random(seed), n_concepts=4, n_roles=2, n_axioms=9)
    results = {
        engine: make_reasoner(engine).classify_named(tbox)
        for engine in COMPLETE_ENGINES
    }
    reference = results["quonto-graph"]
    for engine, result in results.items():
        assert result.agrees_with(reference), (
            engine,
            sorted(map(str, result.missing_from(reference))),
            sorted(map(str, reference.missing_from(result))),
        )


def test_cb_reports_concepts_but_not_property_hierarchy(county_tbox):
    """The paper's caveat: CB 'does not compute property hierarchy'."""
    cb = ConsequenceBasedReasoner().classify_named(county_tbox)
    reference = GraphReasoner().classify_named(county_tbox)
    assert ConceptInclusion(
        AtomicConcept("Municipality"), AtomicConcept("County")
    ) in cb.subsumptions
    role_axiom = RoleInclusion(AtomicRole("isPartOf"), AtomicRole("locatedIn"))
    assert role_axiom in reference.subsumptions
    assert role_axiom not in cb.subsumptions
    assert not ConsequenceBasedReasoner.complete


def test_cb_misses_unsat_driven_subsumptions():
    tbox = parse_tbox("Dead isa A\nDead isa B\nA isa not B\nconcept C")
    cb = ConsequenceBasedReasoner().classify_named(tbox)
    reference = GraphReasoner().classify_named(tbox)
    assert AtomicConcept("Dead") in reference.unsatisfiable
    assert cb.unsatisfiable == frozenset()
    assert reference.missing_from(cb)  # strictly less complete here


def test_dense_matrix_memory_cap():
    tbox = make_random_tbox(random.Random(1), n_concepts=30, n_roles=5, n_axioms=40)
    with pytest.raises(MemoryError):
        DenseMatrixTableauReasoner(memory_limit_cells=100).classify_named(tbox)


def test_memoized_memory_cap():
    tbox = make_random_tbox(random.Random(2), n_concepts=20, n_roles=3, n_axioms=40)
    with pytest.raises(MemoryError):
        MemoizedTableauReasoner(memory_limit_entries=3).classify_named(tbox)


def test_timeout_budget_respected():
    from repro.corpus import load_profile

    tbox = load_profile("Transportation")
    with pytest.raises(TimeoutExceeded):
        PairwiseTableauReasoner().classify_named(tbox, watch=Budget(0.0))


def test_registry_contents():
    assert set(dict(FIGURE1_COLUMNS)) == {"QuOnto", "FaCT++", "HermiT", "Pellet", "CB"}
    for _, engine in FIGURE1_COLUMNS:
        assert engine in REASONER_FACTORIES
    with pytest.raises(ValueError):
        make_reasoner("no-such-engine")


def test_named_classification_comparison_helpers():
    a = NamedClassification(frozenset(), frozenset())
    b = NamedClassification(
        frozenset({ConceptInclusion(AtomicConcept("A"), AtomicConcept("B"))}),
        frozenset(),
    )
    assert not a.agrees_with(b)
    assert b.missing_from(a) == set(b.subsumptions)
    assert len(b) == 1
