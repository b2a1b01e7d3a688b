"""Transitive closure of the TBox digraph.

Computing the closure of ``G_T`` is "the major sub-task in ontology
classification" (paper §5), so three interchangeable algorithms are
provided — the default used by the QuOnto-like classifier, and two
alternatives kept for the closure ablation (DESIGN.md experiment E5):

``scc_bitset`` (default)
    One iterative Tarjan pass: when a strongly connected component pops,
    its reach is ORed from its members' successors, which have all been
    closed by then, as a Python integer bitset.  Equivalent nodes
    (cycles of inclusions) share one bitset.

``bfs``
    A per-node breadth-first search; simple, O(N·E).

``dense``
    Boolean-matrix reachability via repeated squaring with numpy; cubic
    but with a tiny constant, competitive on small dense graphs.

All three return the *reflexive*-transitive closure as a list of integer
bitsets aligned with ``graph.nodes`` (bit ``j`` of ``closure[i]`` set iff
node ``j`` is reachable from node ``i``, including ``i`` itself).
Reflexivity matches the trivial subsumptions ``S ⊑ S`` and simplifies the
predecessor-set intersections of ``computeUnsat``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from ..runtime.budget import Budget

__all__ = [
    "transitive_closure",
    "closure_scc_bitset",
    "closure_bfs",
    "closure_dense",
    "CLOSURE_ALGORITHMS",
]


def closure_scc_bitset(
    successors: Sequence[Set[int]], watch: Optional[Budget] = None
) -> List[int]:
    """One iterative Tarjan pass that closes each component as it pops (the default).

    A component pops only after every component it reaches has popped,
    so its reach is its own members' bits ORed with the finished reach
    of each member's successors.  Successors inside the component are
    not finished yet and still read 0, which is also how the pass tells
    a finished node from one on the Tarjan stack.
    """
    node_count = len(successors)
    closure: List[int] = [0] * node_count
    order = [0] * node_count  # DFS number, 1-based; 0 = unvisited
    low = [0] * node_count
    position = [0] * node_count  # index on the Tarjan stack
    stack: List[int] = []
    counter = 0
    for root in range(node_count):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        position[root] = len(stack)
        stack.append(root)
        # Explicit DFS stack of (node, successor iterator) to avoid
        # recursion limits on deep hierarchies (FMA-shaped ontologies).
        work = [(root, iter(successors[root]))]
        while work:
            node, targets = work[-1]
            for target in targets:
                if not order[target]:
                    counter += 1
                    order[target] = low[target] = counter
                    position[target] = len(stack)
                    stack.append(target)
                    work.append((target, iter(successors[target])))
                    break
                if not closure[target] and order[target] < low[node]:
                    low[node] = order[target]
            else:
                work.pop()
                node_low = low[node]
                if work:
                    parent = work[-1][0]
                    if node_low < low[parent]:
                        low[parent] = node_low
                if node_low != order[node]:
                    continue
                if watch is not None:
                    watch.check()
                if stack[-1] == node:  # a singleton, the common case
                    stack.pop()
                    reach = 1 << node
                    for target in successors[node]:
                        reach |= closure[target]
                    closure[node] = reach
                    continue
                start = position[node]
                members = stack[start:]
                del stack[start:]
                reach = 0
                for member in members:
                    reach |= 1 << member
                    for target in successors[member]:
                        reach |= closure[target]
                for member in members:
                    closure[member] = reach
    return closure


def closure_bfs(
    successors: Sequence[Set[int]], watch: Optional[Budget] = None
) -> List[int]:
    """Per-node BFS reachability (the naive ablation variant)."""
    node_count = len(successors)
    closure: List[int] = [0] * node_count
    for source in range(node_count):
        if watch is not None and source % 256 == 0:
            watch.check()
        seen = 1 << source
        frontier = [source]
        while frontier:
            next_frontier = []
            for node in frontier:
                for target in successors[node]:
                    bit = 1 << target
                    if not seen & bit:
                        seen |= bit
                        next_frontier.append(target)
            frontier = next_frontier
        closure[source] = seen
    return closure


def closure_dense(
    successors: Sequence[Set[int]], watch: Optional[Budget] = None
) -> List[int]:
    """Dense boolean-matrix closure via repeated squaring (numpy)."""
    import numpy

    node_count = len(successors)
    if node_count == 0:
        return []
    # float32 so the squaring runs through BLAS; booleanized after each step.
    matrix = numpy.zeros((node_count, node_count), dtype=numpy.float32)
    for source, targets in enumerate(successors):
        for target in targets:
            matrix[source, target] = 1.0
    numpy.fill_diagonal(matrix, 1.0)
    while True:
        if watch is not None:
            watch.check()
        squared = (matrix @ matrix) > 0.0
        squared = squared.astype(numpy.float32)
        if (squared == matrix).all():
            break
        matrix = squared
    matrix = matrix > 0.0
    closure: List[int] = []
    for source in range(node_count):
        mask = 0
        for target in numpy.flatnonzero(matrix[source]):
            mask |= 1 << int(target)
        closure.append(mask)
    return closure


CLOSURE_ALGORITHMS: Dict[str, Callable[..., List[int]]] = {
    "scc_bitset": closure_scc_bitset,
    "bfs": closure_bfs,
    "dense": closure_dense,
}


def transitive_closure(
    successors: Sequence[Set[int]],
    algorithm: str = "scc_bitset",
    watch: Optional[Budget] = None,
) -> List[int]:
    """Reflexive-transitive closure of an integer digraph as bitsets."""
    try:
        implementation = CLOSURE_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown closure algorithm {algorithm!r}; "
            f"choose from {sorted(CLOSURE_ALGORITHMS)}"
        ) from None
    return implementation(successors, watch)
