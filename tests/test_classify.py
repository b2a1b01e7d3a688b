"""Unit tests for Φ_T and the Classification result object."""

from repro.core import build_digraph, classify, phi_inclusions
from repro.core.closure import transitive_closure
from repro.dllite import (
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    parse_tbox,
)

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
P, R = AtomicRole("P"), AtomicRole("R")


def test_theorem_1_on_the_papers_example():
    # "consider an ontology containing subsumptions A1 ⊑ A2 and A2 ⊑ A3 ..."
    tbox = parse_tbox("A1 isa A2\nA2 isa A3")
    graph = build_digraph(tbox)
    closure = transitive_closure(graph.successors)
    phi = phi_inclusions(graph, closure)
    assert ConceptInclusion(AtomicConcept("A1"), AtomicConcept("A3")) in phi


def test_phi_excludes_reflexive_and_cross_sort():
    tbox = parse_tbox("A isa B\nP isa R")
    graph = build_digraph(tbox)
    closure = transitive_closure(graph.successors)
    phi = phi_inclusions(graph, closure)
    assert ConceptInclusion(A, A) not in phi
    for inclusion in phi:
        assert type(inclusion.lhs).__mro__  # well-formed axiom objects


def test_subsumers_and_subsumees(county_tbox):
    classification = classify(county_tbox)
    municipality = AtomicConcept("Municipality")
    county = AtomicConcept("County")
    assert county in classification.subsumers(municipality)
    assert municipality in classification.subsumees(county)
    assert classification.subsumes(county, municipality)
    assert not classification.subsumes(municipality, county)


def test_role_subsumption_from_role_inclusion(county_tbox):
    classification = classify(county_tbox)
    is_part_of = AtomicRole("isPartOf")
    located_in = AtomicRole("locatedIn")
    assert classification.subsumes(located_in, is_part_of)
    assert classification.subsumes(
        ExistentialRole(located_in), ExistentialRole(is_part_of)
    )
    assert classification.subsumes(
        InverseRole(located_in), InverseRole(is_part_of)
    )


def test_named_only_filters_existential_nodes(county_tbox):
    classification = classify(county_tbox)
    named = classification.subsumers(AtomicConcept("Municipality"), named_only=True)
    assert named == {AtomicConcept("Municipality"), AtomicConcept("County")}


def test_subsumptions_enumeration_counts(county_tbox):
    classification = classify(county_tbox)
    listed = list(classification.subsumptions(named_only=True))
    assert len(listed) == classification.subsumption_count(named_only=True)
    assert len(set(listed)) == len(listed)


def test_include_trivial_adds_reflexive_pairs():
    classification = classify(parse_tbox("A isa B"))
    with_trivial = set(classification.subsumptions(include_trivial=True))
    without = set(classification.subsumptions(include_trivial=False))
    assert ConceptInclusion(A, A) in with_trivial
    assert ConceptInclusion(A, A) not in without
    assert without < with_trivial


def test_equivalents_via_cycles():
    classification = classify(parse_tbox("A isa B\nB isa A\nB isa C"))
    assert classification.equivalents(A) == {A, B}
    classes = classification.equivalence_classes()
    assert {A, B} in classes
    assert {C} in classes


def test_direct_subsumptions_is_hasse_reduction():
    classification = classify(parse_tbox("A isa B\nB isa C\nA isa C"))
    edges = classification.direct_subsumptions()
    # A ⊑ C must be absent: it is implied through B.
    pairs = {(frozenset(child), frozenset(parent)) for child, parent in edges}
    assert (frozenset({A}), frozenset({B})) in pairs
    assert (frozenset({B}), frozenset({C})) in pairs
    assert (frozenset({A}), frozenset({C})) not in pairs


def test_unsat_subsumed_by_every_same_sort_node():
    classification = classify(parse_tbox("Dead isa A\nDead isa B\nA isa not B\nconcept C"))
    dead = AtomicConcept("Dead")
    assert classification.is_unsatisfiable(dead)
    assert classification.subsumes(AtomicConcept("C"), dead)
    assert dead in classification.unsatisfiable()


def test_declared_only_predicate_appears():
    classification = classify(parse_tbox("concept Lonely\nA isa B"))
    lonely = AtomicConcept("Lonely")
    assert classification.subsumers(lonely) == {lonely}
