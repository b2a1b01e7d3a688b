"""Unit tests for the semi-naive datalog engine."""

import pytest

from repro.dllite import (
    ABox,
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeAssertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from repro.errors import UnknownPredicate
from repro.obda import ABoxExtents, evaluate_cq, parse_cq
from repro.obda.datalog import Program, ProgramExtents, Rule, evaluate_program
from repro.obda.queries import Atom, Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c, d = (Individual(n) for n in "abcd")


def edge_extents(*pairs):
    abox = ABox([RoleAssertion(AtomicRole("edge"), s, t) for s, t in pairs])
    return ABoxExtents(abox)


def rule(head_text, body_text):
    parsed = parse_cq(f"{head_text} :- {body_text}")
    return Rule(Atom(parsed.name, tuple(parsed.answer_vars)), parsed.atoms)


def test_rule_safety_checked():
    with pytest.raises(UnknownPredicate):
        Rule(Atom("p", (x, y)), (Atom("q", (x,)),))
    with pytest.raises(UnknownPredicate):
        Rule(Atom("p", (x,)), ())


def test_single_flat_rule():
    program = Program([rule("reach(x, y)", "edge(x, y)")])
    idb = evaluate_program(program, edge_extents((a, b), (b, c)))
    assert idb["reach"] == {(a, b), (b, c)}


def test_transitive_closure_recursion():
    program = Program(
        [
            rule("reach(x, y)", "edge(x, y)"),
            rule("reach(x, z)", "edge(x, y), reach(y, z)"),
        ]
    )
    idb = evaluate_program(program, edge_extents((a, b), (b, c), (c, d)))
    assert idb["reach"] == {
        (a, b), (b, c), (c, d),
        (a, c), (b, d),
        (a, d),
    }


def test_cycle_terminates():
    program = Program(
        [
            rule("reach(x, y)", "edge(x, y)"),
            rule("reach(x, z)", "reach(x, y), reach(y, z)"),
        ]
    )
    idb = evaluate_program(program, edge_extents((a, b), (b, a)))
    assert idb["reach"] == {(a, b), (b, a), (a, a), (b, b)}


def test_mutual_recursion():
    program = Program(
        [
            rule("even(x, y)", "edge(x, y), start(x)"),
            rule("odd(x, z)", "even(x, y), edge(y, z)"),
            rule("even(x, z)", "odd(x, y), edge(y, z)"),
        ]
    )
    abox = ABox(
        [
            RoleAssertion(AtomicRole("edge"), a, b),
            RoleAssertion(AtomicRole("edge"), b, c),
            RoleAssertion(AtomicRole("edge"), c, d),
            ConceptAssertion(AtomicConcept("start"), a),
        ]
    )
    # 'start' is unary — represent via a concept atom in the body
    program = Program(
        [
            Rule(Atom("even", (x, y)), (Atom("edge", (x, y)), Atom("start", (x,)))),
            Rule(Atom("odd", (x, z)), (Atom("even", (x, y)), Atom("edge", (y, z)))),
            Rule(Atom("even", (x, z)), (Atom("odd", (x, y)), Atom("edge", (y, z)))),
        ]
    )
    idb = evaluate_program(program, ABoxExtents(abox))
    assert idb["even"] == {(a, b), (a, d)}
    assert idb["odd"] == {(a, c)}


def test_constants_in_rules():
    program = Program(
        [
            Rule(Atom("from_a", (y,)), (Atom("edge", (Constant("a"), y)),)),
            Rule(Atom("tagged", (x, Constant("hit"))), (Atom("from_a", (x,)),)),
        ]
    )
    idb = evaluate_program(program, edge_extents((a, b), (b, c)))
    assert idb["from_a"] == {(b,)}
    assert idb["tagged"] == {(b, "hit")}


def test_program_predicate_partition():
    program = Program(
        [
            rule("reach(x, y)", "edge(x, y)"),
            rule("far(x, z)", "reach(x, y), reach(y, z)"),
        ]
    )
    assert program.idb_predicates() == {"reach", "far"}
    assert program.edb_predicates() == {"edge"}


def test_program_extents_provider_lazily_evaluates():
    program = Program(
        [
            rule("reach(x, y)", "edge(x, y)"),
            rule("reach(x, z)", "edge(x, y), reach(y, z)"),
        ]
    )
    provider = ProgramExtents(program, edge_extents((a, b), (b, c)))
    assert provider.extent("edge", 2) == {(a, b), (b, c)}  # EDB falls through
    assert provider.extent("reach", 2) == {(a, b), (b, c), (a, c)}


def test_join_on_repeated_variables():
    program = Program([Rule(Atom("loop", (x,)), (Atom("edge", (x, x)),))])
    idb = evaluate_program(program, edge_extents((a, a), (a, b)))
    assert idb["loop"] == {(a,)}


def _program_over_abox():
    """``R(x, y) :- P(x, y)`` over an ABox holding ``P(a, b)`` and ``A(b)``."""
    abox = ABox(
        [RoleAssertion(AtomicRole("P"), a, b), ConceptAssertion(AtomicConcept("A"), b)]
    )
    program = Program([rule("R(x, y)", "P(x, y)")])
    return abox, ProgramExtents(program, ABoxExtents(abox))


def test_program_extents_serve_a_base_write_to_edb_joins():
    abox, provider = _program_over_abox()
    query = parse_cq("q(x) :- A(y), P(x, y)")
    assert evaluate_cq(query, provider) == {(a,)}
    abox.add(RoleAssertion(AtomicRole("P"), c, b))
    assert evaluate_cq(query, provider) == {(a,), (c,)}


def test_program_extents_evaluate_the_idb_again_after_a_base_write():
    abox, provider = _program_over_abox()
    query = parse_cq("q(x) :- A(y), R(x, y)")
    assert evaluate_cq(query, provider) == {(a,)}
    abox.add(RoleAssertion(AtomicRole("P"), c, b))
    assert evaluate_cq(query, provider) == {(a,), (c,)}


def test_rules_join_cells_by_the_identity_of_evaluate_cq():
    # the value 1 and the value "1" are one term (one string form)
    abox = ABox(
        [
            AttributeAssertion(AtomicAttribute("U"), a, 1),
            AttributeAssertion(AtomicAttribute("V"), b, "1"),
        ]
    )
    extents = ABoxExtents(abox)
    query = "q(x, y) :- U(x, v), V(y, v)"
    idb = evaluate_program(Program([rule("q(x, y)", "U(x, v), V(y, v)")]), extents)
    assert idb["q"] == evaluate_cq(parse_cq(query), extents) == {(a, b)}
