"""Unit tests for the transitive-closure algorithms (all three agree)."""

import random

import pytest

from repro.core.closure import (
    CLOSURE_ALGORITHMS,
    closure_bfs,
    closure_scc_bitset,
    transitive_closure,
)
from repro.errors import TimeoutExceeded
from repro.runtime.budget import Budget


def bits(mask):
    result = set()
    index = 0
    while mask:
        if mask & 1:
            result.add(index)
        mask >>= 1
        index += 1
    return result


def test_empty_graph():
    for algorithm in CLOSURE_ALGORITHMS:
        assert transitive_closure([], algorithm=algorithm) == []


def test_reflexivity_on_isolated_nodes():
    closure = transitive_closure([set(), set(), set()])
    assert [bits(m) for m in closure] == [{0}, {1}, {2}]


def test_simple_chain():
    closure = transitive_closure([{1}, {2}, set()])
    assert bits(closure[0]) == {0, 1, 2}
    assert bits(closure[1]) == {1, 2}
    assert bits(closure[2]) == {2}


def test_cycle_collapses_to_full_reachability():
    closure = transitive_closure([{1}, {2}, {0}])
    for mask in closure:
        assert bits(mask) == {0, 1, 2}


def test_diamond():
    closure = transitive_closure([{1, 2}, {3}, {3}, set()])
    assert bits(closure[0]) == {0, 1, 2, 3}
    assert bits(closure[1]) == {1, 3}
    assert bits(closure[2]) == {2, 3}


def test_deep_chain_no_recursion_error():
    n = 5000
    successors = [{i + 1} for i in range(n - 1)] + [set()]
    closure = closure_scc_bitset(successors)
    assert bits(closure[0]) == set(range(n))


@pytest.mark.parametrize("algorithm", sorted(CLOSURE_ALGORITHMS))
def test_algorithms_agree_on_random_graphs(algorithm):
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 30)
        successors = [
            {rng.randrange(n) for _ in range(rng.randrange(4))} for _ in range(n)
        ]
        reference = closure_bfs(successors)
        assert transitive_closure(successors, algorithm=algorithm) == reference


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        transitive_closure([set()], algorithm="magic")


def test_budget_timeout_propagates():
    watch = Budget(0.0)
    n = 200
    successors = [{(i + 1) % n} for i in range(n)]
    with pytest.raises(TimeoutExceeded):
        # bfs checks the budget every 256 sources; scc checks per component
        closure_scc_bitset(successors, watch)
