"""Unit tests for conjunctive queries, UCQs, homomorphisms, minimization."""

import pytest

from repro.errors import SyntaxError_, UnknownPredicate
from repro.obda import (
    Atom,
    ConjunctiveQuery,
    Constant,
    UnionQuery,
    Variable,
    homomorphism_exists,
    minimize_ucq,
    parse_cq,
    parse_query,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_atom_arity_validation():
    Atom("A", (x,))
    Atom("P", (x, y))
    with pytest.raises(UnknownPredicate):
        Atom("T", (x, y, z))


def test_answer_vars_must_occur_in_body():
    with pytest.raises(UnknownPredicate):
        ConjunctiveQuery([x], [Atom("A", (y,))])


def test_cq_equality_up_to_renaming():
    q1 = ConjunctiveQuery([x], [Atom("P", (x, y))])
    q2 = ConjunctiveQuery([x], [Atom("P", (x, z))])
    assert q1 == q2
    assert hash(q1) == hash(q2)
    q3 = ConjunctiveQuery([x], [Atom("P", (y, x))])
    assert q1 != q3


def test_substitute_and_rename_apart():
    q = ConjunctiveQuery([x], [Atom("P", (x, y))])
    renamed = q.rename_apart("_0")
    assert renamed == q  # equality is modulo existential renaming
    assert renamed.atoms[0].args[1] == Variable("y_0")


def test_parse_cq_variables_and_constants():
    q = parse_cq("q(x) :- worksFor(x, 'DIAG'), Person(x)")
    assert q.answer_vars == (x,)
    assert Atom("worksFor", (x, Constant("DIAG"))) in q.atoms
    q2 = parse_cq("q(x) :- age(x, 42)")
    assert Atom("age", (x, Constant(42))) in q2.atoms


def test_constants_are_one_term_iff_their_string_forms_match():
    assert Constant(1) == Constant("1")
    assert hash(Constant(1)) == hash(Constant("1"))
    assert len({Constant(1), Constant(1.0), Constant(True)}) == 3
    one = parse_cq("q(x) :- code(x, 1)")
    one_float = parse_cq("q(x) :- code(x, 1.0)")
    assert one != one_float
    assert one.canonical() != one_float.canonical()
    assert not homomorphism_exists(one, one_float)
    both = parse_cq("q(x) :- code(x, 1), code(x, 1.0)")
    assert len(both.atoms) == 2
    assert len(minimize_ucq(UnionQuery([one, one_float])).disjuncts) == 2
    assert len(parse_cq("q(x) :- code(x, 1), code(x, '1')").atoms) == 1


def test_parse_boolean_query():
    q = parse_cq("q() :- Person(x)")
    assert q.is_boolean
    assert q.arity == 0


def test_parse_ucq_disjuncts():
    ucq = parse_query("q(x) :- County(x) ; Municipality(x)")
    assert len(ucq) == 2
    assert ucq.arity == 1


def test_parse_rejects_constant_in_head():
    with pytest.raises(SyntaxError_):
        parse_cq("q('a') :- P(x, y)")


def test_parse_rejects_empty_body():
    with pytest.raises(SyntaxError_):
        parse_cq("q(x) :- ")


def test_ucq_rejects_mixed_arity():
    q1 = parse_cq("q(x) :- A(x)")
    q2 = parse_cq("q(x, y) :- P(x, y)")
    with pytest.raises(UnknownPredicate):
        UnionQuery([q1, q2])


def test_homomorphism_basic():
    general = parse_cq("q(x) :- Person(x)")
    specific = parse_cq("q(x) :- Person(x), Teacher(x)")
    assert homomorphism_exists(general, specific)
    assert not homomorphism_exists(specific, general)


def test_homomorphism_respects_answer_vars():
    q1 = parse_cq("q(x) :- P(x, y)")
    q2 = parse_cq("q(x) :- P(y, x)")
    assert not homomorphism_exists(q1, q2)


def test_homomorphism_with_constants():
    general = parse_cq("q(x) :- P(x, y)")
    specific = parse_cq("q(x) :- P(x, 'a')")
    assert homomorphism_exists(general, specific)
    assert not homomorphism_exists(specific, general)


def test_homomorphism_collapsing_variables():
    general = parse_cq("q() :- P(x, y)")
    specific = parse_cq("q() :- P(z, z)")
    assert homomorphism_exists(general, specific)


def test_minimize_drops_subsumed_disjuncts():
    ucq = parse_query("q(x) :- Person(x) ; Person(x), Teacher(x) ; Student(x)")
    minimized = minimize_ucq(ucq)
    assert len(minimized) == 2
    bodies = {len(cq.atoms) for cq in minimized}
    assert bodies == {1}


def test_minimize_keeps_incomparable():
    ucq = parse_query("q(x) :- A(x) ; B(x)")
    assert len(minimize_ucq(ucq)) == 2


def test_str_rendering():
    q = parse_cq("q(x) :- Teacher(x), teaches(x, y)")
    assert str(q) == "q(x) :- Teacher(x), teaches(x, y)"
