"""Unit tests for query evaluation over extents."""

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
from repro.obda import ABoxExtents, evaluate_cq, evaluate_ucq, parse_cq, parse_query

ada, bob, carol = Individual("ada"), Individual("bob"), Individual("carol")


@pytest.fixture
def extents():
    abox = ABox(
        [
            ConceptAssertion(AtomicConcept("Person"), ada),
            ConceptAssertion(AtomicConcept("Person"), bob),
            ConceptAssertion(AtomicConcept("Teacher"), ada),
            RoleAssertion(AtomicRole("knows"), ada, bob),
            RoleAssertion(AtomicRole("knows"), bob, carol),
            RoleAssertion(AtomicRole("knows"), ada, ada),
            AttributeAssertion(AtomicAttribute("age"), ada, 30),
        ]
    )
    return ABoxExtents(abox)


def test_single_atom(extents):
    assert evaluate_cq(parse_cq("q(x) :- Teacher(x)"), extents) == {(ada,)}


def test_join(extents):
    answers = evaluate_cq(parse_cq("q(x, z) :- knows(x, y), knows(y, z)"), extents)
    assert (ada, carol) in answers
    assert (ada, bob) in answers  # via ada→ada→bob
    assert (bob, carol) not in answers or True


def test_repeated_variable_self_loop(extents):
    assert evaluate_cq(parse_cq("q(x) :- knows(x, x)"), extents) == {(ada,)}


def test_constant_filter(extents):
    assert evaluate_cq(parse_cq("q(x) :- knows(x, 'bob')"), extents) == {(ada,)}


def test_constant_against_value(extents):
    assert evaluate_cq(parse_cq("q(x) :- age(x, 30)"), extents) == {(ada,)}
    assert evaluate_cq(parse_cq("q(x) :- age(x, 31)"), extents) == set()


def test_boolean_query(extents):
    assert evaluate_cq(parse_cq("q() :- Teacher(x)"), extents) == {()}
    assert evaluate_cq(parse_cq("q() :- Teacher(x), knows(x, 'carol')"), extents) == set()


def test_empty_extent_short_circuits(extents):
    assert evaluate_cq(parse_cq("q(x) :- Ghost(x), Person(x)"), extents) == set()


def test_ucq_union(extents):
    answers = evaluate_ucq(parse_query("q(x) :- Teacher(x) ; knows(x, 'carol')"), extents)
    assert answers == {(ada,), (bob,)}


def test_attribute_and_role_share_arity_two(extents):
    answers = evaluate_cq(parse_cq("q(x, v) :- age(x, v)"), extents)
    assert answers == {(ada, 30)}


class _NoScanIndex(dict):
    """An index that fails the test if anything walks its buckets."""

    def values(self):
        raise AssertionError("evaluate_cq scanned index.values()")

    items = __iter__ = values


class _NoScanExtents(ABoxExtents):
    def index(self, predicate, arity, positions, budget=None):
        return _NoScanIndex(super().index(predicate, arity, positions, budget))


def test_constant_probe_never_scans_the_index():
    # The index holds Individual cells, the constants are strings: the
    # probe finds the bucket by string form, hit or miss, without a scan.
    extents = _NoScanExtents(ABox([RoleAssertion(AtomicRole("knows"), ada, bob)]))
    assert evaluate_cq(parse_cq("q(x) :- knows(x, 'bob')"), extents) == {(ada,)}
    assert evaluate_cq(parse_cq("q(x) :- knows(x, 'eve')"), extents) == set()
    assert evaluate_cq(
        parse_cq("q(y) :- knows('ada', y), knows(x, y)"), extents
    ) == {(bob,)}


def test_cells_join_by_string_form_objects_apart_from_values():
    one = Individual("1")
    extents = ABoxExtents(
        ABox(
            [
                AttributeAssertion(AtomicAttribute("code"), ada, 1),
                AttributeAssertion(AtomicAttribute("label"), bob, "1"),
                AttributeAssertion(AtomicAttribute("label"), carol, 1.0),
                ConceptAssertion(AtomicConcept("Person"), one),
            ]
        )
    )
    # the value 1 joins the value "1" (one string form), not 1.0
    assert evaluate_cq(
        parse_cq("q(x, y) :- code(x, v), label(y, v)"), extents
    ) == {(ada, bob)}
    # ... and never the object named "1": objects and values stay apart
    assert evaluate_cq(parse_cq("q(x) :- code(x, v), Person(v)"), extents) == set()
    assert evaluate_cq(parse_cq("q(v) :- Person(v), code(x, v)"), extents) == set()
    # a constant takes the kind of its position
    assert evaluate_cq(parse_cq("q(x) :- code(x, '1')"), extents) == {(ada,)}
    assert evaluate_cq(parse_cq("q() :- Person(1)"), extents) == {()}
