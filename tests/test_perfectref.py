"""Unit tests for the PerfectRef rewriter."""

import pytest

from repro.dllite import ABox, parse_tbox
from repro.dllite.abox import ConceptAssertion, Individual
from repro.dllite.axioms import ConceptInclusion
from repro.dllite.syntax import AtomicConcept
from repro.obda import OBDASystem, parse_query, perfect_ref
from repro.obda.rewriting import perfectref
from repro.obda.rewriting.perfectref import RewritingTooLarge, axiom_index


def rewrite(tbox_text, query_text, **kwargs):
    return perfect_ref(parse_query(query_text), parse_tbox(tbox_text), **kwargs)


def bodies(ucq):
    return {tuple(sorted(str(a) for a in cq.atoms)) for cq in ucq}


def test_concept_hierarchy_expansion():
    result = rewrite("Professor isa Teacher", "q(x) :- Teacher(x)")
    assert bodies(result) == {("Teacher(x)",), ("Professor(x)",)}


def test_domain_axiom_rewrites_concept_to_role_atom():
    result = rewrite("role teaches\nexists teaches isa Teacher", "q(x) :- Teacher(x)")
    assert len(result) == 2
    assert any(
        atom.predicate == "teaches" for cq in result for atom in cq.atoms
    )


def test_range_axiom_orientation():
    result = rewrite(
        "role teaches\nexists teaches^- isa Course", "q(y) :- Course(y)"
    )
    found = [a for cq in result for a in cq.atoms if a.predicate == "teaches"]
    assert found and all(str(atom.args[1]) == "y" for atom in found)


def test_unbound_existential_eliminated_by_witness():
    # Teacher ⊑ ∃teaches: the atom teaches(x, y) with unbound y collapses
    result = rewrite(
        "role teaches\nTeacher isa exists teaches", "q(x) :- teaches(x, y)"
    )
    assert ("Teacher(x)",) in bodies(result)


def test_bound_variable_blocks_witness_elimination():
    result = rewrite(
        "role teaches\nTeacher isa exists teaches",
        "q(x, y) :- teaches(x, y)",
    )
    assert bodies(result) == {("teaches(x, y)",)}


def test_qualified_two_atom_rule():
    result = rewrite(
        "role isPartOf\nCounty isa exists isPartOf . State",
        "q(x) :- isPartOf(x, y), State(y)",
    )
    assert ("County(x)",) in bodies(result)


def test_qualified_single_atom_rule():
    result = rewrite(
        "role isPartOf\nCounty isa exists isPartOf . State",
        "q(x) :- isPartOf(x, y)",
    )
    assert ("County(x)",) in bodies(result)


def test_role_hierarchy_rewrites_role_atoms():
    result = rewrite("role P, R\nP isa R", "q(x, y) :- R(x, y)")
    assert ("P(x, y)",) in bodies(result)


def test_inverse_role_inclusion_flips_arguments():
    result = rewrite("role P, R\nP isa R^-", "q(x, y) :- R(x, y)")
    assert ("P(y, x)",) in bodies(result)


def test_reduce_enables_further_rewriting():
    # Classic PerfectRef example: unifying the two role atoms frees y,
    # allowing the witness axiom to fire.
    result = rewrite(
        "role P\nA isa exists P",
        "q(x) :- P(x, y), P(x, z)",
    )
    assert ("A(x)",) in bodies(result)


def test_attribute_rewriting():
    result = rewrite(
        "attribute u\nEmployee isa domain(u)",
        "q(x) :- u(x, v)",
    )
    assert ("Employee(x)",) in bodies(result)


def test_attribute_hierarchy():
    result = rewrite("attribute u, v\nu isa v", "q(x, w) :- v(x, w)")
    assert ("u(x, w)",) in bodies(result)


def test_negative_inclusions_do_not_rewrite():
    result = rewrite("A isa not B", "q(x) :- B(x)")
    assert bodies(result) == {("B(x)",)}


def test_constants_preserved():
    result = rewrite("Professor isa Teacher", "q() :- Teacher('ada')")
    assert ("Professor('ada')",) in bodies(result)


def test_minimization_removes_subsumed():
    result = rewrite(
        "Professor isa Teacher",
        "q(x) :- Teacher(x), Person(x) ; Teacher(x)",
    )
    # the two-atom disjunct is subsumed by the one-atom one
    assert all(len(cq.atoms) <= 2 for cq in result)
    assert ("Teacher(x)",) in bodies(result)


def test_max_disjuncts_guard():
    tbox_lines = ["role P"] + [f"A{i} isa exists P" for i in range(12)]
    with pytest.raises(RewritingTooLarge):
        rewrite(
            "\n".join(tbox_lines),
            "q(x) :- P(x, a), P(x, b), P(x, c), P(x, d)",
            max_disjuncts=5,
        )


def test_the_axiom_index_is_built_once_per_tbox_generation(monkeypatch):
    """Every rewriting against one TBox generation (queries and the
    consistency checks, on any system over the TBox) shares one axiom
    index; an added axiom builds the next one."""
    built = []

    class Counted(perfectref.AxiomIndex):
        def __init__(self, tbox):
            built.append(tbox)
            super().__init__(tbox)

    monkeypatch.setattr(perfectref, "AxiomIndex", Counted)
    tbox = parse_tbox("Professor isa Teacher\nTeacher isa Person\nStudent isa not Teacher")
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual("ada")))
    systems = [OBDASystem(tbox, abox=abox) for _ in range(2)]
    for system in systems:
        assert system.certain_answers("q(x) :- Person(x)") == {(Individual("ada"),)}
        assert system.certain_answers("q(x) :- Teacher(x)", method="perfectref")
    assert len(built) == 1
    assert axiom_index(tbox) is axiom_index(tbox)
    tbox.add(ConceptInclusion(AtomicConcept("Student"), AtomicConcept("Person")))
    for system in systems:
        assert system.certain_answers("q(x) :- Person(x)") == {(Individual("ada"),)}
    assert len(built) == 2

