"""LRU cache behaviour + property-based canonicalization/pruning checks.

The property tests reuse the :mod:`repro.testkit` generators: seeded
random TBoxes, ABoxes and query batches.  Two invariants are asserted
over many rounds:

* **canonicalization soundness** — alpha-equivalent queries (renamed
  variables, shuffled atoms, reordered disjuncts) get identical cache
  keys, and queries that share a key have identical certain answers;
* **pruning soundness** — dropping subsumed disjuncts from a PerfectRef
  rewriting never changes the certain answers.
"""

from __future__ import annotations

import random

import pytest

from repro.obda.evaluation import ABoxExtents, evaluate_ucq
from repro.obda.queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.obda.rewriting.perfectref import perfect_ref
from repro.perf import LRUCache, cq_key, prune_ucq, ucq_key
from repro.testkit.generators import (
    FuzzProfile,
    direct_mapping_system,
    random_abox,
    random_profile_tbox,
    random_queries,
)

SIZES = FuzzProfile(
    max_concepts=12,
    max_roles=4,
    max_individuals=10,
    max_assertions=30,
    max_queries=4,
    max_query_atoms=3,
)


# -- LRU mechanics ------------------------------------------------------------


def test_lru_bounds_and_evicts_in_order():
    cache = LRUCache(maxsize=2, name="t")
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a": "b" is now the LRU entry
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_lru_stats_and_invalidate():
    cache = LRUCache(maxsize=4, name="t")
    cache.put("k", "v")
    assert cache.get("k") == "v"
    assert cache.get("missing") is None
    stats = cache.stats
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.hit_rate == 0.5
    assert cache.invalidate() == 1
    assert len(cache) == 0
    assert stats.invalidations == 1
    # peek never touches the counters
    cache.put("k", "v")
    assert cache.peek("k") == "v"
    assert stats.hits == 1


def test_lru_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


# -- alpha-equivalence --------------------------------------------------------


def _alpha_variant(cq: ConjunctiveQuery, rng: random.Random) -> ConjunctiveQuery:
    """Rename every variable and shuffle the atom order."""
    renaming = {}
    for atom in cq.atoms:
        for term in atom.args:
            if isinstance(term, Variable) and term not in renaming:
                renaming[term] = Variable(f"renamed_{len(renaming)}")
    atoms = [
        Atom(atom.predicate, tuple(renaming.get(t, t) for t in atom.args))
        for atom in cq.atoms
    ]
    rng.shuffle(atoms)
    answer_vars = tuple(renaming.get(v, v) for v in cq.answer_vars)
    return ConjunctiveQuery(answer_vars, atoms, name=cq.name)


def test_alpha_equivalent_queries_share_cache_keys():
    rng = random.Random(11)
    for _ in range(25):
        tbox = random_profile_tbox(rng, SIZES)
        for query in random_queries(rng, tbox, SIZES):
            variant = UnionQuery(
                [_alpha_variant(cq, rng) for cq in reversed(list(query))],
                name="variant",
            )
            assert ucq_key(query) == ucq_key(variant)
            for cq in query:
                assert cq_key(cq) == cq_key(_alpha_variant(cq, rng))


def test_canonical_form_is_computed_once_per_query():
    x, y = Variable("x"), Variable("y")
    cq = ConjunctiveQuery((x,), [Atom("P", (x, y)), Atom("C", (y,))])
    first = cq.canonical()
    assert cq.canonical() is first
    assert cq_key(cq) is first
    assert ucq_key(UnionQuery([cq]))[1][0] is first
    assert hash(cq) == hash(first)


def test_distinct_shapes_get_distinct_keys():
    x, y = Variable("x"), Variable("y")
    chain = ConjunctiveQuery((x,), [Atom("P", (x, y)), Atom("C", (y,))])
    loop = ConjunctiveQuery((x,), [Atom("P", (x, x)), Atom("C", (x,))])
    assert cq_key(chain) != cq_key(loop)


def test_equal_keys_imply_equal_answers():
    rng = random.Random(23)
    for _ in range(15):
        tbox = random_profile_tbox(rng, SIZES)
        abox = random_abox(rng, tbox, SIZES)
        extents = ABoxExtents(abox)
        by_key = {}
        for query in random_queries(rng, tbox, SIZES):
            variant = UnionQuery(
                [_alpha_variant(cq, rng) for cq in query], name="variant"
            )
            for candidate in (query, variant):
                key = ucq_key(candidate)
                answers = evaluate_ucq(candidate, extents)
                if key in by_key:
                    assert by_key[key] == answers
                else:
                    by_key[key] = answers


# -- pruning soundness --------------------------------------------------------


def test_pruning_never_changes_certain_answers():
    rng = random.Random(37)
    for _ in range(15):
        tbox = random_profile_tbox(rng, SIZES)
        abox = random_abox(rng, tbox, SIZES)
        extents = ABoxExtents(abox)
        for query in random_queries(rng, tbox, SIZES):
            raw = perfect_ref(query, tbox, minimize=False)
            pruned = prune_ucq(raw)
            assert pruned.after <= pruned.before
            assert evaluate_ucq(pruned.ucq, extents) == evaluate_ucq(raw, extents)


# -- warm path ----------------------------------------------------------------


def test_warm_batch_is_served_by_the_caches_and_matches_cold():
    from repro.corpus import load_profile

    tbox = load_profile("Mouse", scale=0.1)
    rng = random.Random(7)
    sizes = FuzzProfile(max_individuals=40, max_assertions=200, max_queries=3)
    system = direct_mapping_system(tbox, random_abox(rng, tbox, profile=sizes))
    batch = []
    while len(batch) < 3:
        batch.extend(random_queries(rng, tbox, sizes))
    batch = batch[:3]
    cold = [system.certain_answers(query) for query in batch]
    hits = system.cache_stats()["answers"]["hits"]
    warm = [system.certain_answers(query) for query in batch]
    assert warm == cold
    assert system.cache_stats()["answers"]["hits"] == hits + len(batch)
    # the answer cache served the warm pass before rewriting was asked;
    # the rewrite-only entry point must hit the rewriting cache
    rewriting_hits = system.cache_stats()["rewriting"]["hits"]
    for query in batch:
        system.rewrite(query)
    assert system.cache_stats()["rewriting"]["hits"] == rewriting_hits + len(batch)


def test_rewritings_with_caches_off_run_the_cached_pipeline():
    """PerfectRef rewrites unminimized and ``prune_ucq`` prunes, with
    caches on or off: the rewritings are equal and both ``rewrite``
    spans record the disjuncts before and after pruning."""
    from repro.dllite import ABox, parse_tbox
    from repro.obda.system import OBDASystem
    from repro.obs.trace import Tracer, use_tracer

    tbox = parse_tbox(
        "role teaches\nProfessor isa Teacher\nTeacher isa exists teaches\n"
        "exists teaches isa Teacher\nexists teaches^- isa Course\n"
    )
    system = OBDASystem(tbox, abox=ABox())
    cold = OBDASystem(tbox, abox=ABox(), enable_caches=False)
    for query in ("q(x) :- Teacher(x), teaches(x, y)", "q(y) :- teaches(x, y), Course(y)"):
        rewritings, counts = [], []
        for each in (system, cold):
            tracer = Tracer("rewrite")
            with use_tracer(tracer):
                rewritings.append(each.rewrite(query))
            [span] = [span for span in tracer.spans if span.name == "rewrite"]
            counts.append(
                (
                    span.attributes["disjuncts_before_pruning"],
                    span.attributes["disjuncts_after_pruning"],
                )
            )
        assert ucq_key(rewritings[0]) == ucq_key(rewritings[1])
        before, after = counts[0]
        assert counts == [(before, after)] * 2
        assert before > after == len(rewritings[0])
