"""Property-based tests (hypothesis) for the core invariants.

These encode the central correctness claims of the paper:

* Theorem 1 — the digraph closure decides exactly the Φ_T subsumptions;
* computeUnsat — sound and complete unsatisfiability detection;
* the graph classifier agrees with the independent saturation oracle and
  with the brute-force finite-model semantics on every axiom shape;
* both concrete syntaxes (the textual DL-Lite grammar and OWL 2 QL
  functional style) round-trip: ``parse(serialize(T)) == T``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.baselines import SaturationReasoner, make_reasoner
from repro.baselines.saturation import Saturation
from repro.core import ImplicationChecker, classify
from repro.core.closure import closure_bfs, closure_scc_bitset, transitive_closure
from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    AttributeInclusion,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    NegatedAttribute,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
    RoleInclusion,
    TBox,
    find_countermodel,
)

CONCEPTS = [AtomicConcept(f"C{i}") for i in range(3)]
ROLES = [AtomicRole(f"P{i}") for i in range(2)]
BASIC_ROLES = ROLES + [InverseRole(role) for role in ROLES]
#: one attribute, so the oracles check the digraph's U, δ(U) block too
U0 = AtomicAttribute("U0")
BASICS = CONCEPTS + [ExistentialRole(role) for role in BASIC_ROLES] + [AttributeDomain(U0)]

concepts_st = st.sampled_from(CONCEPTS)
basics_st = st.sampled_from(BASICS)
basic_roles_st = st.sampled_from(BASIC_ROLES)

concept_axiom_st = st.one_of(
    st.builds(ConceptInclusion, basics_st, basics_st),
    st.builds(
        ConceptInclusion, basics_st, st.builds(NegatedConcept, basics_st)
    ),
    st.builds(
        ConceptInclusion,
        basics_st,
        st.builds(QualifiedExistential, basic_roles_st, concepts_st),
    ),
)
role_axiom_st = st.one_of(
    st.builds(RoleInclusion, basic_roles_st, basic_roles_st),
    st.builds(RoleInclusion, basic_roles_st, st.builds(NegatedRole, basic_roles_st)),
)
attribute_axiom_st = st.sampled_from(
    [AttributeInclusion(U0, U0), AttributeInclusion(U0, NegatedAttribute(U0))]
)
axiom_st = st.one_of(concept_axiom_st, role_axiom_st, attribute_axiom_st)


def build_tbox(axioms) -> TBox:
    tbox = TBox(axioms)
    for concept in CONCEPTS:
        tbox.declare(concept)
    for role in ROLES:
        tbox.declare(role)
    return tbox


tbox_st = st.lists(axiom_st, min_size=0, max_size=8).map(build_tbox)

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(tbox_st)
@_settings
def test_graph_classifier_agrees_with_saturation(tbox):
    graph_result = make_reasoner("quonto-graph").classify_named(tbox)
    saturation_result = SaturationReasoner().classify_named(tbox)
    assert graph_result.agrees_with(saturation_result)


@given(tbox_st)
@_settings
def test_classification_is_sound_wrt_finite_models(tbox):
    """No classified subsumption admits a (small) countermodel."""
    classification = classify(tbox)
    for axiom in classification.subsumptions(named_only=True):
        assert find_countermodel(tbox, axiom, max_domain=2) is None, axiom


@given(tbox_st)
@_settings
def test_subsumption_is_reflexive_and_transitive(tbox):
    classification = classify(tbox)
    nodes = list(classification.graph.nodes)
    for node in nodes:
        assert classification.subsumes(node, node)
    import random as _random

    rng = _random.Random(0)
    for _ in range(30):
        a, b, c = (rng.choice(nodes) for _ in range(3))
        if classification.subsumes(b, a) and classification.subsumes(c, b):
            assert classification.subsumes(c, a)


@given(tbox_st)
@_settings
def test_unsat_is_exactly_self_disjointness(tbox):
    """S is unsatisfiable iff T ⊨ S ⊑ ¬S (checked via saturation)."""
    classification = classify(tbox)
    saturation = Saturation(tbox)
    for node in classification.graph.nodes:
        assert classification.is_unsatisfiable(node) == saturation.entails_negative(
            node, node
        ), node


@given(tbox_st, axiom_st)
@_settings
def test_implication_checker_never_crashes_and_is_sound(tbox, axiom):
    checker = ImplicationChecker.for_tbox(tbox)
    if checker.entails(axiom):
        assert find_countermodel(tbox, axiom, max_domain=2) is None


# -- serializer round-trips ---------------------------------------------------
#
# A wider axiom strategy than the classification one: attributes and
# functionality participate, because the serializers have dedicated code
# paths for them (DataSomeValuesFrom, DisjointDataProperties, funct).

from repro.dllite import (  # noqa: E402 — grouped with the strategies below
    FunctionalAttribute,
    FunctionalRole,
    parse_owl_functional,
    parse_tbox,
    serialize_owl_functional,
    serialize_tbox,
)

ATTRIBUTES = [AtomicAttribute(f"U{i}") for i in range(2)]
attributes_st = st.sampled_from(ATTRIBUTES)
rich_basics_st = st.one_of(
    basics_st, st.builds(AttributeDomain, attributes_st)
)
rich_axiom_st = st.one_of(
    axiom_st,
    st.builds(ConceptInclusion, rich_basics_st, rich_basics_st),
    st.builds(AttributeInclusion, attributes_st, attributes_st),
    st.builds(
        AttributeInclusion,
        attributes_st,
        st.builds(NegatedAttribute, attributes_st),
    ),
    st.builds(FunctionalRole, basic_roles_st),
    st.builds(FunctionalAttribute, attributes_st),
)


def build_rich_tbox(axioms) -> TBox:
    tbox = build_tbox(axioms)
    for attribute in ATTRIBUTES:
        tbox.declare(attribute)
    return tbox


rich_tbox_st = st.lists(rich_axiom_st, min_size=0, max_size=10).map(build_rich_tbox)


@given(rich_tbox_st)
@_settings
def test_textual_syntax_round_trips(tbox):
    """parse_tbox(serialize_tbox(T)) reproduces T axiom-for-axiom."""
    parsed = parse_tbox(serialize_tbox(tbox), name=tbox.name)
    assert set(parsed) == set(tbox)
    assert parsed.signature == tbox.signature


@given(rich_tbox_st)
@_settings
def test_owl_functional_syntax_round_trips(tbox):
    """parse_owl_functional(serialize_owl_functional(T)) reproduces T."""
    parsed = parse_owl_functional(serialize_owl_functional(tbox))
    assert set(parsed.tbox) == set(tbox)
    assert parsed.tbox.signature == tbox.signature


@given(rich_tbox_st)
@_settings
def test_round_trip_preserves_classification(tbox):
    """Re-parsed ontologies classify identically (both syntaxes)."""
    engine = make_reasoner("quonto-graph")
    original = engine.classify_named(tbox)
    via_text = parse_tbox(serialize_tbox(tbox))
    via_owl = parse_owl_functional(serialize_owl_functional(tbox)).tbox
    assert original.agrees_with(engine.classify_named(via_text))
    assert original.agrees_with(engine.classify_named(via_owl))


@given(
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=0, max_size=30
    )
)
@settings(max_examples=80, deadline=None)
def test_closure_algorithms_equivalent(arcs):
    node_count = 12
    successors = [set() for _ in range(node_count)]
    for source, target in arcs:
        successors[source].add(target)
    assert closure_scc_bitset(successors) == closure_bfs(successors)
    assert transitive_closure(successors, "dense") == closure_bfs(successors)


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=25
    )
)
@settings(max_examples=60, deadline=None)
def test_closure_is_idempotent(arcs):
    node_count = 10
    successors = [set() for _ in range(node_count)]
    for source, target in arcs:
        successors[source].add(target)
    closure = closure_scc_bitset(successors)
    # re-closing the closed graph changes nothing
    closed_successors = [
        {j for j in range(node_count) if mask >> j & 1} for mask in closure
    ]
    assert closure_scc_bitset(closed_successors) == closure
