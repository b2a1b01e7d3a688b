"""The integer-keyed classifier phases against the expression-keyed ones they replaced.

``reference_build_digraph`` and ``reference_compute_unsat`` are the
digraph build and ``computeUnsat`` the classifier ran before its phases
moved to integer ids: the build hashed a freshly built node expression at
every arc end and kept a predecessor list, and Ω_T was seeded and
propagated on the closure of the reversed digraph.  They stay here as
references: on every Figure-1 benchmark profile and on random TBoxes,
``build_digraph`` must produce the same node ids and arcs, the one-pass
closure the same bitsets as per-node BFS, and the forward-closure
``compute_unsat`` the same Ω_T.
"""

from __future__ import annotations

import random

import pytest

from repro.core import GraphClassifier, build_digraph, compute_unsat
from repro.core.classify import Classification
from repro.core.closure import closure_bfs, closure_scc_bitset, transitive_closure
from repro.core.digraph import sort_of
from repro.corpus.profiles import FIGURE1_ORDER
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
    QualifiedExistential,
    RoleInclusion,
    Signature,
    inverse_of,
    parse_tbox,
)
from tests.conftest import fig1_texts, make_random_tbox


# -- the references --------------------------------------------------------------


class ReferenceDigraph:
    """Nodes interned per arc end by expression, successors and predecessors."""

    def __init__(self, tbox):
        self.tbox = tbox
        self.nodes = []
        self.index = {}
        self.successors = []
        self.predecessors = []
        self.arc_count = 0

    def add_node(self, expression):
        node_id = self.index.get(expression)
        if node_id is None:
            node_id = len(self.nodes)
            self.index[expression] = node_id
            self.nodes.append(expression)
            self.successors.append(set())
            self.predecessors.append(set())
        return node_id

    def add_arc(self, source, target):
        source_id = self.add_node(source)
        target_id = self.add_node(target)
        if target_id not in self.successors[source_id]:
            self.successors[source_id].add(target_id)
            self.predecessors[target_id].add(source_id)
            self.arc_count += 1

    def __contains__(self, expression):
        return expression in self.index

    def node_id(self, expression):
        return self.index[expression]


def reference_build_digraph(tbox):
    graph = ReferenceDigraph(tbox)
    for concept in tbox.signature.concepts:
        graph.add_node(concept)
    for role in tbox.signature.roles:
        graph.add_node(role)
        graph.add_node(InverseRole(role))
        graph.add_node(ExistentialRole(role))
        graph.add_node(ExistentialRole(InverseRole(role)))
    for attribute in tbox.signature.attributes:
        graph.add_node(attribute)
        graph.add_node(AttributeDomain(attribute))
    for axiom in tbox.positive_inclusions:
        if isinstance(axiom, ConceptInclusion):
            if isinstance(axiom.rhs, QualifiedExistential):
                graph.add_arc(axiom.lhs, ExistentialRole(axiom.rhs.role))
            else:
                graph.add_arc(axiom.lhs, axiom.rhs)
        elif isinstance(axiom, RoleInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs
            graph.add_arc(lhs, rhs)
            graph.add_arc(inverse_of(lhs), inverse_of(rhs))
            graph.add_arc(ExistentialRole(lhs), ExistentialRole(rhs))
            graph.add_arc(
                ExistentialRole(inverse_of(lhs)), ExistentialRole(inverse_of(rhs))
            )
        elif isinstance(axiom, AttributeInclusion):
            graph.add_arc(axiom.lhs, axiom.rhs)
            graph.add_arc(AttributeDomain(axiom.lhs), AttributeDomain(axiom.rhs))
    return graph


def reference_compute_unsat(graph):
    """Seed from intersected predecessor sets, then propagate, all on the
    closure of the reversed digraph."""
    preds = closure_scc_bitset(graph.predecessors)
    unsat_mask = 0
    for axiom in graph.tbox.negative_inclusions:
        if isinstance(axiom, ConceptInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.concept
        elif isinstance(axiom, RoleInclusion):
            lhs, rhs = axiom.lhs, axiom.rhs.role
        else:
            lhs, rhs = axiom.lhs, axiom.rhs.attribute
        if lhs not in graph or rhs not in graph:
            continue
        unsat_mask |= preds[graph.node_id(lhs)] & preds[graph.node_id(rhs)]

    companion_groups = []
    for role in graph.tbox.signature.roles:
        group = 0
        for expression in (
            role,
            InverseRole(role),
            ExistentialRole(role),
            ExistentialRole(InverseRole(role)),
        ):
            if expression in graph:
                group |= 1 << graph.node_id(expression)
        companion_groups.append(group)
    for attribute in graph.tbox.signature.attributes:
        group = 0
        for expression in (attribute, AttributeDomain(attribute)):
            if expression in graph:
                group |= 1 << graph.node_id(expression)
        companion_groups.append(group)
    qualified_axioms = [
        (axiom.lhs, rhs.role, rhs.filler)
        for axiom, rhs in graph.tbox.qualified_existentials()
    ]
    while True:
        previous = unsat_mask
        for group in companion_groups:
            if unsat_mask & group:
                unsat_mask |= group
        mask = unsat_mask
        while mask:
            low = mask & -mask
            unsat_mask |= preds[low.bit_length() - 1]
            mask ^= low
        for lhs, role, filler in qualified_axioms:
            filler_unsat = unsat_mask >> graph.node_id(filler) & 1
            role_unsat = role in graph and unsat_mask >> graph.node_id(role) & 1
            if filler_unsat or role_unsat:
                unsat_mask |= 1 << graph.node_id(lhs)
        if unsat_mask == previous:
            break
    return frozenset(i for i in range(len(graph.nodes)) if unsat_mask >> i & 1)


def reference_subsumption_count(graph, closure, unsat):
    """The named-only count, one ``bin().count`` per node."""
    named_mask = 0
    sort_masks = {}
    for node_id, node in enumerate(graph.nodes):
        if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute)):
            named_mask |= 1 << node_id
        sort_masks[sort_of(node)] = sort_masks.get(sort_of(node), 0) | 1 << node_id
    count = 0
    for node_id, node in enumerate(graph.nodes):
        if not named_mask >> node_id & 1:
            continue
        if node_id in unsat:
            mask = sort_masks[sort_of(node)] & named_mask
        else:
            mask = closure[node_id] & named_mask
        count += bin(mask).count("1") - (mask >> node_id & 1)
    return count


# -- the comparison ----------------------------------------------------------------


def assert_matches_references(tbox):
    """Same digraph, BFS-equal closure, same Ω_T and count; returns Ω_T."""
    graph = build_digraph(tbox)
    reference = reference_build_digraph(tbox)
    assert graph.nodes == reference.nodes
    assert graph.index == reference.index
    assert graph.successors == reference.successors
    assert graph.arc_count == reference.arc_count
    closure = transitive_closure(graph.successors)
    bfs = closure_bfs(reference.successors)
    assert closure == bfs
    unsat = compute_unsat(graph, closure)
    assert unsat == reference_compute_unsat(reference)
    assert Classification(graph, closure, unsat).subsumption_count() == (
        reference_subsumption_count(reference, bfs, unsat)
    )
    return unsat


@pytest.fixture(scope="module")
def seed1_texts():
    return fig1_texts(1)


@pytest.mark.parametrize("name", FIGURE1_ORDER)
def test_fig1_profiles_match_the_references(seed1_texts, name):
    unsat = assert_matches_references(parse_tbox(seed1_texts[name], name=name))
    if name == "AEO":
        assert unsat  # the one profile whose Ω_T is not empty at seed 1


ATTRIBUTES = [AtomicAttribute("U0"), AtomicAttribute("U1")]


@pytest.mark.parametrize("seed", range(50))
def test_random_tboxes_match_the_references(seed):
    rng = random.Random(seed)
    tbox = make_random_tbox(rng)
    # make_random_tbox draws no attributes: add a few, so the U, δ(U)
    # blocks take part (domains below concepts, inclusions both ways).
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    for _ in range(3):
        first, second = rng.sample(ATTRIBUTES, 2)
        draw = rng.random()
        if draw < 0.4:
            tbox.add(ConceptInclusion(AttributeDomain(first), rng.choice(concepts)))
        elif draw < 0.6:
            tbox.add(ConceptInclusion(rng.choice(concepts), AttributeDomain(first)))
        elif draw < 0.85:
            tbox.add(AttributeInclusion(first, second))
        else:
            tbox.add(AttributeInclusion(first, NegatedAttribute(second)))
    assert_matches_references(tbox)


def test_predicate_missing_from_the_signature_is_interned_on_first_sight():
    """``TBox.add`` appends an axiom before it registers the axiom's
    predicates, so a concurrent build can see an axiom over predicates
    its signature snapshot lacks."""
    text = """
        role P, LateRole
        attribute v, late
        A isa B
        Late isa A
        Late isa C
        B isa not C
        A isa exists LateRole^- . B
        P isa LateRole
        domain(late) isa B
        late isa v
        """
    complete = parse_tbox(text)
    torn = parse_tbox(text)
    late = {AtomicConcept("Late"), AtomicRole("LateRole"), AtomicAttribute("late")}
    torn.signature = Signature(
        complete.signature.concepts - late,
        complete.signature.roles - late,
        complete.signature.attributes - late,
    )

    graph = build_digraph(torn)
    late_role = AtomicRole("LateRole")
    # each late predicate gets its whole block, after the signature's
    # nodes, in the order the axioms first use it
    assert graph.nodes[-7:] == [
        AtomicConcept("Late"),
        late_role,
        InverseRole(late_role),
        ExistentialRole(late_role),
        ExistentialRole(InverseRole(late_role)),
        AtomicAttribute("late"),
        AttributeDomain(AtomicAttribute("late")),
    ]
    assert set(graph.nodes) == set(build_digraph(complete).nodes)
    assert set(graph.arcs()) == set(build_digraph(complete).arcs())
    assert graph.block(graph.node_id(ExistentialRole(late_role))) == range(
        len(graph.nodes) - 6, len(graph.nodes) - 2
    )

    classifier = GraphClassifier()
    expected, actual = classifier.classify(complete), classifier.classify(torn)
    assert set(actual.subsumptions()) == set(expected.subsumptions())
    assert actual.unsatisfiable() == expected.unsatisfiable() == {AtomicConcept("Late")}
    assert actual.subsumption_count() == expected.subsumption_count()


def test_negative_inclusion_over_a_predicate_outside_the_digraph_is_skipped():
    tbox = parse_tbox("A isa B\nA isa not Ghost\nA isa not B")
    tbox.signature = Signature(
        tbox.signature.concepts - {AtomicConcept("Ghost")}, (), ()
    )
    graph = build_digraph(tbox)
    assert AtomicConcept("Ghost") not in graph
    closure = transitive_closure(graph.successors)
    assert {graph.nodes[i] for i in compute_unsat(graph, closure)} == {AtomicConcept("A")}


def test_role_blocks_keep_companions_together():
    tbox = parse_tbox("role P, R\nP isa R^-\nexists P isa A\nexists P isa B\nA isa not B")
    graph = build_digraph(tbox)
    P = AtomicRole("P")
    for member in (P, InverseRole(P), ExistentialRole(P), ExistentialRole(InverseRole(P))):
        assert graph.block(graph.node_id(member)) == graph.block(graph.node_id(P))
    closure = transitive_closure(graph.successors)
    assert {str(graph.nodes[i]) for i in compute_unsat(graph, closure)} == {
        "P", "P⁻", "∃P", "∃P⁻"
    }
