"""Unit tests for the Presto-style datalog rewriter."""

import pytest

from repro.dllite import ABox, parse_tbox
from repro.dllite.abox import ConceptAssertion, Individual, RoleAssertion
from repro.dllite.axioms import ConceptInclusion, RoleInclusion
from repro.dllite.syntax import AtomicConcept, AtomicRole
from repro.dllite.tbox import TBox
from repro.obda import (
    ABoxExtents,
    DatalogExtents,
    OBDASystem,
    evaluate_ucq,
    parse_query,
    perfect_ref,
    presto_rewrite,
)
from repro.testkit import direct_mapping_system


def test_hierarchy_goes_to_rules_not_disjuncts():
    tbox = parse_tbox("\n".join(f"S{i} isa Top" for i in range(20)))
    query = parse_query("q(x) :- Top(x)")
    datalog = presto_rewrite(query, tbox)
    ucq = perfect_ref(query, tbox)
    # PerfectRef: 21 disjuncts; Presto: 1 disjunct + 21 flat rules.
    assert len(ucq) == 21
    assert len(datalog.ucq) == 1
    assert len(datalog.rules) == 21
    assert datalog.ucq.disjuncts[0].atoms[0].predicate == "Top*"


def test_rules_cover_existential_subsumees():
    tbox = parse_tbox("role teaches\nexists teaches isa Teacher")
    datalog = presto_rewrite(parse_query("q(x) :- Teacher(x)"), tbox)
    rule_bodies = {str(rule.body[0]) for rule in datalog.rules}
    assert "teaches(x, y)" in rule_bodies
    assert "Teacher(x)" in rule_bodies


def test_size_metric_counts_rules_and_query():
    tbox = parse_tbox("A isa B")
    datalog = presto_rewrite(parse_query("q(x) :- B(x)"), tbox)
    assert datalog.size == sum(1 + len(r.body) for r in datalog.rules) + 1


def test_unknown_predicates_stay_base():
    tbox = parse_tbox("A isa B")
    datalog = presto_rewrite(parse_query("q(x) :- Mystery(x)"), tbox)
    assert datalog.rules == []
    assert datalog.ucq.disjuncts[0].atoms[0].predicate == "Mystery"


def make_abox():
    abox = ABox()
    ada, logic = Individual("ada"), Individual("logic")
    abox.add(ConceptAssertion(AtomicConcept("Professor"), ada))
    abox.add(RoleAssertion(AtomicRole("teaches"), ada, logic))
    abox.add(ConceptAssertion(AtomicConcept("Student"), Individual("sam")))
    return abox


@pytest.mark.parametrize(
    "query_text",
    [
        "q(x) :- Person(x)",
        "q(x) :- Teacher(x)",
        "q(y) :- Course(y)",
        "q(x) :- Teacher(x), teaches(x, y)",
        "q(x, y) :- teaches(x, y)",
        "q(x) :- teaches(x, y), Course(y)",
    ],
)
def test_presto_equals_perfectref_on_university(query_text):
    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches isa Teacher
        exists teaches^- isa Course
        """
    )
    abox = make_abox()
    query = parse_query(query_text)
    via_perfectref = evaluate_ucq(perfect_ref(query, tbox), ABoxExtents(abox))
    datalog = presto_rewrite(query, tbox)
    via_presto = evaluate_ucq(
        datalog.ucq, DatalogExtents(datalog, ABoxExtents(abox))
    )
    assert via_presto == via_perfectref


def test_as_program_matches_flat_evaluation():
    """The general semi-naive engine and the flat fast path agree."""
    from repro.obda.datalog import ProgramExtents

    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        exists teaches isa Teacher
        exists teaches^- isa Course
        """
    )
    abox = make_abox()
    query = parse_query("q(x) :- Teacher(x)")
    datalog = presto_rewrite(query, tbox)
    base = ABoxExtents(abox)
    flat = evaluate_ucq(datalog.ucq, DatalogExtents(datalog, base))
    general = evaluate_ucq(datalog.ucq, ProgramExtents(datalog.as_program(), base))
    assert flat == general and flat


def test_presto_with_attributes():
    tbox = parse_tbox(
        """
        attribute salary, wage
        wage isa salary
        Employee isa domain(salary)
        """
    )
    from repro.dllite.abox import AttributeAssertion
    from repro.dllite.syntax import AtomicAttribute

    abox = ABox(
        [AttributeAssertion(AtomicAttribute("wage"), Individual("ada"), 10)]
    )
    query = parse_query("q(x, v) :- salary(x, v)")
    datalog = presto_rewrite(query, tbox)
    answers = evaluate_ucq(datalog.ucq, DatalogExtents(datalog, ABoxExtents(abox)))
    reference = evaluate_ucq(perfect_ref(query, tbox), ABoxExtents(abox))
    assert answers == reference == {(Individual("ada"), 10)}


def test_repeated_atom_query_keeps_every_answer():
    # `P(y, x), P(y, x)` is the query `P(y, x)`: y stays an unbound
    # existential, so A ⊑ ∃P⁻ (and B ⊑ A) rewrite it for both methods —
    # also when the plain form is asked second and hits the cache entry
    # the repeated form created.
    from repro.obda.system import OBDASystem

    tbox = parse_tbox("role P\nA isa exists P^-\nB isa A")
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("B"), Individual("b")))
    abox.add(RoleAssertion(AtomicRole("P"), Individual("s"), Individual("o")))
    assert len(parse_query("q(x) :- P(y, x), P(y, x)").disjuncts[0].atoms) == 1
    expected = {(Individual("b"),), (Individual("o"),)}
    system = OBDASystem(tbox, abox=abox)
    for query in ("q(x) :- P(y, x), P(y, x)", "q(x) :- P(y, x)"):
        for method in ("presto", "perfectref"):
            answers = system.certain_answers(query, method=method)
            assert answers == expected, (query, method)


def test_tbox_mutation_reaches_the_next_presto_answer():
    # The witness set is memoized per classification: a TBox mutation
    # makes the system classify anew, so the new existential is seen.
    from repro.dllite.axioms import ConceptInclusion
    from repro.dllite.syntax import ExistentialRole
    from repro.obda.system import OBDASystem

    tbox = parse_tbox("role teaches\nLecturer isa exists teaches")
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual("ada")))
    system = OBDASystem(tbox, abox=abox)
    query = "q(x) :- teaches(x, y)"
    assert system.certain_answers(query, method="presto") == set()
    tbox.add(
        ConceptInclusion(
            AtomicConcept("Professor"), ExistentialRole(AtomicRole("teaches"))
        )
    )
    assert system.certain_answers(query, method="presto") == {
        (Individual("ada"),)
    }


def test_witness_index_is_built_once_per_classification():
    from repro.core.classifier import GraphClassifier
    from repro.obda.rewriting.presto import _witness_index

    tbox = parse_tbox("role teaches\nLecturer isa exists teaches")
    classification = GraphClassifier().classify(tbox)
    index = _witness_index(classification)
    presto_rewrite(parse_query("q(x) :- teaches(x, y)"), tbox, classification)
    assert _witness_index(classification) is index
    assert _witness_index(GraphClassifier().classify(tbox)) is not index


def _shared_name_tbox():
    """``A ⊑ P`` for a concept ``P`` and ``R ⊑ P`` for a role ``P``: one
    name, two predicates (the parser refuses the text, a TBox holds it)."""
    return TBox(
        [
            ConceptInclusion(AtomicConcept("A"), AtomicConcept("P")),
            RoleInclusion(AtomicRole("R"), AtomicRole("P")),
        ]
    )


def _shared_name_abox():
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("A"), Individual("a")))
    abox.add(RoleAssertion(AtomicRole("R"), Individual("c"), Individual("b")))
    return abox


_SHARED_NAME_QUERIES = (
    ("q(x) :- P(x), P(x, y)", set()),
    ("q(x, y) :- P(x), P(x, y)", set()),
    ("q(x) :- P(x)", {(Individual("a"),)}),
    ("q(x, y) :- P(x, y)", {(Individual("c"), Individual("b"))}),
)


def test_a_concept_and_a_role_sharing_a_name_are_two_auxiliary_predicates():
    """Presto keyed its auxiliary predicates by name alone, so ``P*``
    held the rules of both ``P``s: ``q(x) :- P(x), P(x, y)`` answered
    ``(a,)`` and the two-variable query raised IndexError, where the
    other methods answer nothing.  Asked in sequence on one system, the
    queries also share its derived-extent provider."""
    tbox = _shared_name_tbox()
    program = presto_rewrite(parse_query("q(x) :- P(x), P(x, y)"), tbox)
    assert sorted(str(rule) for rule in program.rules if rule.head.predicate == "P*") == [
        "P*(x) :- A(x)", "P*(x) :- P(x)", "P*(x, y) :- P(x, y)", "P*(x, y) :- R(x, y)",
    ]
    abox = _shared_name_abox()
    systems = {
        "kb": OBDASystem(tbox, abox=abox),
        "mapped": direct_mapping_system(tbox, abox),
    }
    try:
        for label, system in systems.items():
            methods = ("perfectref", "presto")
            if label == "mapped":
                methods += ("perfectref-sql", "perfectref-sqlite")
            for text, expected in _SHARED_NAME_QUERIES:
                for method in methods:
                    assert system.certain_answers(text, method=method) == expected, (
                        label, method, text,
                    )
    finally:
        systems["mapped"].sql_backend().close()


def test_base_facts_of_a_concept_and_a_role_sharing_a_name_stay_apart():
    """Knowledge-base extents, the evaluator's reads and the join indexes
    key a predicate by name and arity: ``P(a)`` and ``P(c, b)`` are two
    extents (the two-variable query raised IndexError on both methods)."""
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("P"), Individual("a")))
    abox.add(RoleAssertion(AtomicRole("P"), Individual("c"), Individual("b")))
    system = OBDASystem(_shared_name_tbox(), abox=abox)
    for method in ("perfectref", "presto"):
        assert system.certain_answers("q(x) :- P(x)", method=method) == {(Individual("a"),)}
        assert system.certain_answers("q(x, y) :- P(x, y)", method=method) == {
            (Individual("c"), Individual("b"))
        }
        assert system.certain_answers("q(x) :- P(x), P(x, y)", method=method) == set()

