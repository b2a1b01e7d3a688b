"""Rewritings keyed by query template, and Presto's shared derived extents.

``OBDASystem.rewrite`` caches a rewriting under the query's template
(its canonical form with constants as parameters) and binds the
constants of a later query of the same template into it; Presto's
auxiliary predicates are served by one derived-extent provider per
system.  These tests pin what each hit must equal: a fresh rewriting of
the same query, and a cache-free twin's answers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dllite import ABox, parse_tbox
from repro.dllite.abox import AttributeAssertion, ConceptAssertion, Individual, RoleAssertion
from repro.dllite.axioms import ConceptInclusion
from repro.dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from repro.obda import (
    ABoxExtents,
    Database,
    DatalogExtents,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
    evaluate_ucq,
    parse_query,
    perfect_ref,
    presto_rewrite,
)
from repro.obda.mapping import IriTemplate
from repro.obda.queries import Constant, homomorphism_exists
from repro.obs.metrics import global_metrics
from repro.perf.canonical import bind_constants, template_key
from repro.runtime.retry import RetryPolicy
from repro.testkit import FuzzProfile, random_abox, random_queries, random_tiny_tbox
from repro.testkit.generators import ABSENT_NAME, with_constants
from tests.conftest import harness_workloads


def _contained(smaller, larger) -> bool:
    """Every disjunct of *smaller* is contained in one of *larger*."""
    return all(
        any(homomorphism_exists(general, specific) for general in larger)
        for specific in smaller
    )


def _equivalent(first, second) -> bool:
    return _contained(first, second) and _contained(second, first)


def _presto_answers(program, extents):
    return evaluate_ucq(program.ucq, DatalogExtents(program, extents))


def _rewriting_stats(system):
    stats = system.cache_stats()["rewriting"]
    return stats["hits"], stats["misses"]


# -- the template key ------------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, shared",
    [
        # a repeated constant is one parameter, two distinct ones are two
        ("q(x) :- R(x, 'b'), S(x, 'b')", "q(x) :- R(x, 'b'), S(x, 'd')", False),
        # constants swapped between two positions: one template
        ("q(x) :- R(x, 'b'), S(x, 'd')", "q(x) :- R(x, 'd'), S(x, 'b')", True),
        # renamed variables, reordered atoms, other constants
        ("q(x) :- R(x, y), S(y, 'b')", "q(u) :- S(w, 'z'), R(u, w)", True),
        # a constant is not a variable
        ("q(x) :- R(x, 'b')", "q(x) :- R(x, y)", False),
        # disjuncts reordered, constants spread over both
        ("q(x) :- R(x, 'b') ; S(x, 'd')", "q(x) :- S(x, 'e') ; R(x, 'f')", True),
        # a repeated constant across two disjuncts stays one parameter
        ("q(x) :- R(x, 'b') ; S(x, 'b')", "q(x) :- R(x, 'b') ; S(x, 'd')", False),
    ],
)
def test_template_keys_share_exactly_what_one_rewriting_serves(first, second, shared):
    one, other = template_key(parse_query(first)), template_key(parse_query(second))
    assert (one.shape == other.shape) is shared


def test_constants_key_by_string_form():
    one = template_key(parse_query("q(x) :- U(x, 1)"))
    text = template_key(parse_query("q(x) :- U(x, '1')"))
    real = template_key(parse_query("q(x) :- U(x, 1.0)"))
    assert one.shape == text.shape == real.shape
    assert one.keys == text.keys == ("1",)
    assert real.keys == ("1.0",)


def test_a_repeated_answer_variable_is_not_an_existential_one():
    repeated = parse_query("q(x, x) :- R(x, y)")
    looped = parse_query("q(x, x) :- R(x, x)")
    assert template_key(repeated).shape != template_key(looped).shape
    assert repeated.disjuncts[0].canonical() != looped.disjuncts[0].canonical()


def test_binding_rebuilds_only_the_disjuncts_with_constants():
    ucq = parse_query("q(x) :- R(x, 'b') ; A(x)")
    bound = bind_constants(ucq, {"b": Constant("d")})
    assert [str(cq) for cq in bound] == ["q(x) :- R(x, 'd')", "q(x) :- A(x)"]
    assert bound.disjuncts[1] is ucq.disjuncts[1]
    assert bound.disjuncts[0] == parse_query("q(x) :- R(x, 'd')").disjuncts[0]


# -- template hits against fresh rewritings ---------------------------------------------

_TBOX = """
role R, S
attribute U
B isa A
exists R isa A
S isa R
exists S^- isa B
A isa domain(U)
"""


def _abox() -> ABox:
    abox = ABox()
    a, b, c, d, e = (Individual(name) for name in "abcde")
    R, S, U = AtomicRole("R"), AtomicRole("S"), AtomicAttribute("U")
    abox.add(RoleAssertion(R, a, b))
    abox.add(RoleAssertion(S, c, d))
    abox.add(RoleAssertion(S, a, d))
    abox.add(ConceptAssertion(AtomicConcept("B"), e))
    abox.add(AttributeAssertion(U, a, 1))
    abox.add(AttributeAssertion(U, c, 1.0))
    return abox


@pytest.mark.parametrize("method", ("perfectref", "presto"))
@pytest.mark.parametrize(
    "queries, hits",
    [
        (("q(x) :- R(x, 'b'), S(x, 'b')", "q(x) :- R(x, 'b'), S(x, 'd')"), 0),
        (("q(x) :- R(x, 'b'), S(x, 'd')", "q(x) :- R(x, 'd'), S(x, 'b')"), 1),
        (("q(x) :- U(x, 1)", "q(x) :- U(x, '1')", "q(x) :- U(x, 1.0)"), 2),
        (("q(x) :- R(x, 'b') ; S(x, 'd')", "q(x) :- R(x, 'd') ; S(x, 'e')",
          "q(x) :- S(x, 'b') ; R(x, 'd')"), 2),
        (("q(x) :- A(x), R(x, y), S(y, 'd')", "q(x) :- A(x), R(x, y), S(y, 'b')",
          "q(x) :- A(x), R(x, y), S(y, 'nobody')"), 2),
    ],
)
def test_a_template_hit_answers_as_a_fresh_rewriting(method, queries, hits):
    tbox = parse_tbox(_TBOX)
    abox = _abox()
    system = OBDASystem(tbox, abox=abox)
    cold = OBDASystem(tbox, abox=abox, enable_caches=False)
    extents = ABoxExtents(abox)
    for text in queries:
        query = parse_query(text)
        served = system.rewrite(query, method=method)
        if method == "presto":
            fresh = presto_rewrite(query, tbox)
            assert _equivalent(served.ucq, fresh.ucq), text
            assert _presto_answers(served, extents) == _presto_answers(fresh, extents)
        else:
            fresh = perfect_ref(query, tbox)
            assert _equivalent(served, fresh), text
            assert evaluate_ucq(served, extents) == evaluate_ucq(fresh, extents)
    assert _rewriting_stats(system) == (hits, len(queries) - hits)
    for text in queries:
        assert system.certain_answers(text, method=method) == cold.certain_answers(
            text, method=method
        )


@pytest.mark.parametrize("method", ("perfectref", "presto"))
def test_a_query_with_the_cached_constants_gets_the_cached_rewriting(method):
    system = OBDASystem(parse_tbox(_TBOX), abox=_abox())
    first = system.rewrite("q(x) :- U(x, 1), R(x, y)", method=method)
    assert system.rewrite("q(u) :- R(u, v), U(u, '1')", method=method) is first
    other = system.rewrite("q(x) :- U(x, 1.0), R(x, y)", method=method)
    assert other is not first
    assert _rewriting_stats(system) == (2, 1)


@example(seed=0)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_template_hits_match_fresh_rewritings_on_random_ontologies(seed):
    """Random tiny TBoxes and data, each query asked with three sets of
    constants (ABox names and one no ABox holds): every rewriting the
    cache serves is equivalent to a fresh one of that query (mutual
    containment: pruning may keep either of two equivalent disjuncts)
    and has its certain answers."""
    rng = random.Random(seed)
    profile = FuzzProfile()
    tbox = random_tiny_tbox(rng, profile)
    abox = random_abox(rng, tbox, profile)
    versions = with_constants(rng, random_queries(rng, tbox, profile), abox, count=3)
    system = OBDASystem(tbox, abox=abox)
    extents = ABoxExtents(abox)
    for version in versions:
        served = system.rewrite(version)
        fresh = perfect_ref(version, tbox)
        assert _equivalent(served, fresh), str(version)
        assert evaluate_ucq(served, extents) == evaluate_ucq(fresh, extents)
        program = system.rewrite(version, method="presto")
        expected = presto_rewrite(version, tbox)
        assert _equivalent(program.ucq, expected.ucq), str(version)
        assert sorted(map(str, program.rules)) == sorted(map(str, expected.rules))
        assert _presto_answers(program, extents) == _presto_answers(expected, extents)
    # one miss per template and rewriting group, every other call a hit
    hits, misses = _rewriting_stats(system)
    assert misses == 2 * len({template_key(version).shape for version in versions})
    assert hits + misses == 2 * len(versions)


def test_with_constants_keeps_one_template_per_query():
    rng = random.Random(5)
    profile = FuzzProfile()
    for _ in range(30):
        tbox = random_tiny_tbox(rng, profile)
        abox = random_abox(rng, tbox, profile)
        queries = random_queries(rng, tbox, profile)
        versions = with_constants(rng, queries, abox, count=2)
        names = {individual.name for individual in abox.individuals()} | {ABSENT_NAME}
        for first, second in zip(versions[::2], versions[1::2]):
            one, other = template_key(first), template_key(second)
            assert one.shape == other.shape
            assert set(one.keys) | set(other.keys) <= names
            assert one.keys


# -- univ-point: one rewriting per template ------------------------------------------


def _univ_point(seed: int = 1):
    """The univ-point benchmark's four warm systems and its queries of
    the first template (20 constants)."""
    workloads = harness_workloads()
    workload = workloads.UnivPoint()
    inputs = workload.make_inputs(seed)
    systems = workload.setup(inputs, 0, workloads.DirectExecutor())
    prefix = workload.TEMPLATES[0][0].split("'")[0]
    queries = [query for query, _ in workload.ops(inputs, 0) if query.startswith(prefix)]
    return systems, queries


def test_twenty_constants_of_one_template_rewrite_once_per_method():
    systems, queries = _univ_point()
    assert len(queries) == 20
    try:
        for method, system in systems.items():
            before = _rewriting_stats(system)
            for query in queries:
                system.certain_answers(query, method=method)
            hits, misses = _rewriting_stats(system)
            assert (hits - before[0], misses - before[1]) == (19, 1), method
        reference = systems["perfectref"]
        for query in queries[:5]:
            expected = reference.certain_answers(query)
            for method, system in systems.items():
                assert system.certain_answers(query, method=method) == expected
    finally:
        systems["perfectref-sqlite"].sql_backend().close()


# -- Presto's derived extents, shared per system ---------------------------------------

_CAMPUS = """
role teaches
Professor isa Teacher
Teacher isa Person
Student isa Person
exists teaches isa Teacher
exists teaches^- isa Course
Student isa not Teacher
"""


def _campus(enable_caches: bool = True) -> OBDASystem:
    database = Database("campus")
    database.create_table("staff", ["id", "role"], [(1, "prof"), (2, "prof"), (3, "lecturer")])
    database.create_table("teaching", ["staff_id", "course"], [(1, "logic"), (2, "compilers")])
    database.create_table("enrolled", ["sid"], [(10,), (11,)])
    person = IriTemplate("person/{id}")
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (person,))],
            ),
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'lecturer'",
                [TargetAtom(AtomicConcept("Teacher"), (person,))],
            ),
            MappingAssertion(
                "SELECT staff_id, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("person/{staff_id}"), IriTemplate("course/{course}")),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT sid FROM enrolled",
                [TargetAtom(AtomicConcept("Student"), (IriTemplate("person/{sid}"),))],
            ),
        ]
    )
    return OBDASystem(
        parse_tbox(_CAMPUS), mappings=mappings, database=database,
        enable_caches=enable_caches,
    )


def _counts():
    metrics = global_metrics()
    return (
        metrics.counter("obda.evaluation.derivations").value,
        metrics.counter("obda.evaluation.derived_deltas").value,
    )


_TEACHER_QUERIES = (
    "q(x) :- Teacher(x), teaches(x, 'course/logic')",
    "q(x) :- Teacher(x), teaches(x, 'course/compilers')",
    "q(x) :- Teacher(x)",
)


def _twin_answers(system, query):
    twin = OBDASystem(
        system.tbox, mappings=system.mappings, database=system.database,
        enable_caches=False,
    )
    return twin.certain_answers(query, method="presto")


def test_queries_over_one_auxiliary_predicate_derive_it_once():
    system = _campus()
    expected = [_twin_answers(system, query) for query in _TEACHER_QUERIES]
    start = _counts()
    for query, answers in zip(_TEACHER_QUERIES, expected):
        assert system.certain_answers(query, method="presto") == answers
    provider = system._presto_extents
    # Teacher* is derived once; teaches* is served as its base predicate
    assert list(provider._cache) == [("Teacher*", 1)]
    assert _counts()[0] - start[0] == 1
    index = provider.index("Teacher*", 1, (0,))
    system.certain_answers("q(x) :- Teacher(x), Person(x)", method="presto")
    assert system._presto_extents is provider
    assert provider.index("Teacher*", 1, (0,)) is index


def test_an_append_grows_the_shared_derived_extent_by_one_delta():
    system = _campus()
    for query in _TEACHER_QUERIES:
        system.certain_answers(query, method="presto")
    provider = system._presto_extents
    # person/4 becomes a Teacher by teaching only
    system.database["teaching"].insert((4, "logic"))
    expected = [_twin_answers(system, query) for query in _TEACHER_QUERIES]
    derivations, deltas = _counts()
    for query, answers in zip(_TEACHER_QUERIES, expected):
        assert system.certain_answers(query, method="presto") == answers
    assert system._presto_extents is provider
    assert _counts() == (derivations, deltas + 1)
    assert (Individual("person/4"),) in provider.extent("Teacher*", 1)


def test_a_tbox_change_and_invalidate_caches_drop_the_provider():
    system = _campus()
    query = _TEACHER_QUERIES[2]
    system.certain_answers(query, method="presto")
    provider = system._presto_extents
    system.tbox.add(ConceptInclusion(AtomicConcept("Course"), AtomicConcept("Teacher")))
    answers = system.certain_answers(query, method="presto")
    assert answers == _twin_answers(system, query)
    assert (Individual("course/logic"),) in answers
    assert system._presto_extents is not provider
    provider = system._presto_extents
    system.invalidate_caches()
    assert system._presto_extents is None
    assert system.certain_answers(query, method="presto") == answers
    assert system._presto_extents is not provider


def test_cache_free_and_retrying_calls_keep_per_call_providers():
    cold = _campus(enable_caches=False)
    cold.certain_answers(_TEACHER_QUERIES[0], method="presto")
    assert cold._presto_extents is None
    system = _campus()
    retry = RetryPolicy(max_attempts=2, base_delay_s=0.0)
    answers = system.certain_answers(_TEACHER_QUERIES[0], method="presto", retry=retry)
    assert answers == _twin_answers(system, _TEACHER_QUERIES[0])
    assert system._presto_extents is None
