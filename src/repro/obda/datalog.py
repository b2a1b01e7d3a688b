"""A semi-naive datalog engine (positive, recursion-capable).

The Presto-style rewriter emits flat single-atom rules, but nothing in
the OBDA stack should depend on that: this module evaluates arbitrary
positive datalog programs bottom-up with semi-naive iteration, over any
:class:`~repro.obda.evaluation.ExtentProvider` supplying the extensional
(source) predicates.  It backs :class:`ProgramExtents`, a drop-in
provider for IDB predicates, and is independently useful (e.g. for
transitive part-of queries over a mapped source).

Restrictions: no negation, no built-ins; every head variable must occur
in the body (safety), checked at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import UnknownPredicate
from .evaluation import ExtentProvider, evaluate_cq
from .queries import Atom, ConjunctiveQuery, Variable
from .sql.table import Extent

__all__ = ["Rule", "Program", "ProgramExtents", "evaluate_program"]


@dataclass(frozen=True)
class Rule:
    """``head :- body``, positive atoms only, safe."""

    head: Atom
    body: Tuple[Atom, ...]

    def __post_init__(self):
        if not self.body:
            raise UnknownPredicate(f"rule for {self.head} has an empty body")
        body_vars = set()
        for atom in self.body:
            body_vars |= atom.variables()
        unsafe = [v for v in self.head.variables() if v not in body_vars]
        if unsafe:
            raise UnknownPredicate(
                f"unsafe rule: head variables {[str(v) for v in unsafe]} "
                f"missing from the body of {self}"
            )

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(map(str, self.body))}"


class Program:
    """A positive datalog program: rules indexed by head predicate."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self.rules: List[Rule] = []
        self.by_head: Dict[str, List[Rule]] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        self.rules.append(rule)
        self.by_head.setdefault(rule.head.predicate, []).append(rule)

    def idb_predicates(self) -> Set[str]:
        return set(self.by_head)

    def edb_predicates(self) -> Set[str]:
        predicates: Set[str] = set()
        for rule in self.rules:
            for atom in rule.body:
                if atom.predicate not in self.by_head:
                    predicates.add(atom.predicate)
        return predicates

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


class _RuleExtents(ExtentProvider):
    """What one rule evaluation reads: the delta relation under a name no
    rule uses, the IDB relations as they stand (one default table each),
    and the EDB tables of the base provider (with their indexes).  Thrown
    away after the evaluation, so the IDB sets growing afterwards
    invalidates nothing."""

    def __init__(self, edb: ExtentProvider, idb, delta_name: str, delta_rows):
        self.edb = edb
        self.idb = idb
        self.delta_name = delta_name
        self.delta_rows = delta_rows

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        if predicate == self.delta_name:
            return self.delta_rows
        if predicate in self.idb:
            return self.idb[predicate]
        return self.edb.extent(predicate, arity)

    def table(self, predicate: str, arity: int) -> Extent:
        if predicate == self.delta_name or predicate in self.idb:
            return super().table(predicate, arity)
        return self.edb.table(predicate, arity)


def _fire(
    rule: Rule,
    edb: ExtentProvider,
    idb: Dict[str, Set[Tuple]],
    delta_name: str,
    delta: Optional[Dict[str, Set[Tuple]]] = None,
) -> Set[Tuple]:
    """All head tuples derivable by *rule*, each body evaluated by
    :func:`~repro.obda.evaluation.evaluate_cq`.

    With *delta*, implements the semi-naive trick: the result is the
    union over body positions of joins where that position reads the
    delta relation (renamed to *delta_name*) and every other position
    reads the full relation.
    """
    variables = [term for term in rule.head.args if isinstance(term, Variable)]
    bodies = [(rule.body, set())]
    if delta is not None:
        bodies = [
            (
                rule.body[:position]
                + (Atom(delta_name, atom.args),)
                + rule.body[position + 1:],
                delta[atom.predicate],
            )
            for position, atom in enumerate(rule.body)
            if delta.get(atom.predicate)
        ]
    results: Set[Tuple] = set()
    for body, delta_rows in bodies:
        extents = _RuleExtents(edb, idb, delta_name, delta_rows)
        for answer in evaluate_cq(ConjunctiveQuery(variables, body), extents):
            values = iter(answer)
            results.add(
                tuple(
                    next(values) if isinstance(term, Variable) else term.value
                    for term in rule.head.args
                )
            )
    return results


def evaluate_program(
    program: Program, edb: ExtentProvider
) -> Dict[str, Set[Tuple]]:
    """Least fixpoint of *program* over *edb*; returns IDB extents."""
    idb: Dict[str, Set[Tuple]] = {name: set() for name in program.idb_predicates()}
    delta_name = "Δ"
    predicates = idb.keys() | program.edb_predicates()
    while delta_name in predicates:
        delta_name += "'"

    # First round: naive evaluation seeds the deltas.
    delta: Dict[str, Set[Tuple]] = {name: set() for name in idb}
    for rule in program:
        derived = _fire(rule, edb, idb, delta_name)
        fresh = derived - idb[rule.head.predicate]
        idb[rule.head.predicate] |= fresh
        delta[rule.head.predicate] |= fresh

    # Semi-naive iteration until no rule derives anything new.
    while any(delta.values()):
        next_delta: Dict[str, Set[Tuple]] = {name: set() for name in idb}
        for rule in program:
            if not any(
                atom.predicate in delta and delta[atom.predicate]
                for atom in rule.body
            ):
                continue
            derived = _fire(rule, edb, idb, delta_name, delta)
            fresh = derived - idb[rule.head.predicate]
            idb[rule.head.predicate] |= fresh
            next_delta[rule.head.predicate] |= fresh
        delta = next_delta
    return idb


class ProgramExtents(ExtentProvider):
    """Expose a program's IDB predicates on top of a base provider.

    The IDB is evaluated on first use and again whenever the base
    provider's generation moves, and each IDB predicate is served as one
    default table per generation.  EDB predicates fall through to the
    base provider, tables and indexes alike.
    """

    def __init__(self, program: Program, base: ExtentProvider):
        self.program = program
        self.base = base
        #: (base generation, IDB extents evaluated at it)
        self._idb: Optional[Tuple[int, Dict[str, Set[Tuple]]]] = None

    def generation(self) -> int:
        return self.base.generation()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        if predicate not in self.program.by_head:
            return self.base.extent(predicate, arity)
        # The generation is read before evaluating: a concurrent write
        # leaves it behind the IDB, so the next read evaluates again.
        generation = self.base.generation()
        evaluated = self._idb
        if evaluated is None or evaluated[0] != generation:
            evaluated = self._idb = (generation, evaluate_program(self.program, self.base))
        return evaluated[1].get(predicate, set())

    def table(self, predicate: str, arity: int) -> Extent:
        if predicate not in self.program.by_head:
            return self.base.table(predicate, arity)
        return super().table(predicate, arity)
