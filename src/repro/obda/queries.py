"""Conjunctive queries and unions thereof (the OBDA query language).

OBDA query answering (paper §4) is about *unions of conjunctive queries*
(UCQs) over the ontology signature.  Atoms use concept names (arity 1)
and role/attribute names (arity 2); terms are variables or constants.

The module also implements the standard homomorphism check between CQs,
used for UCQ minimization (dropping subsumed disjuncts keeps PerfectRef
outputs small) and heavily exercised by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple, Union

from ..errors import UnknownPredicate

__all__ = [
    "Variable",
    "Constant",
    "Term",
    "Atom",
    "ConjunctiveQuery",
    "UnionQuery",
    "homomorphism_exists",
    "minimize_ucq",
]


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A query constant.  Two constants are one term iff their values have
    the same string form — the identity cells have in every executor — so
    ``1`` and ``'1'`` are one term, ``1``, ``1.0`` and ``True`` three."""

    value: object = field(compare=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", str(self.value))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Atom:
    """``predicate(args)`` — arity 1 (concepts) or 2 (roles/attributes)."""

    predicate: str
    args: Tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) not in (1, 2):
            raise UnknownPredicate(
                f"atom {self.predicate!r} has arity {len(self.args)}; only 1 and 2 "
                "are meaningful over a DL-Lite signature"
            )

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Set[Variable]:
        return {term for term in self.args if isinstance(term, Variable)}

    def substitute(self, mapping: Dict[Variable, Term]) -> "Atom":
        return Atom(
            self.predicate,
            tuple(
                mapping.get(term, term) if isinstance(term, Variable) else term
                for term in self.args
            ),
        )

    def with_args(self, args: Tuple[Term, ...]) -> "Atom":
        """This atom's predicate over *args*, as many as its own, built
        without the constructor's arity check."""
        atom = object.__new__(Atom)
        atom.__dict__.update(predicate=self.predicate, args=args)
        return atom

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(map(str, self.args))})"


class ConjunctiveQuery:
    """``q(answer_vars) :- atom, ..., atom``."""

    def __init__(
        self,
        answer_vars: Sequence[Variable],
        atoms: Sequence[Atom],
        name: str = "q",
    ):
        self.name = name
        self.answer_vars: Tuple[Variable, ...] = tuple(answer_vars)
        # A conjunction is idempotent: each atom once, in first-occurrence
        # order — the form canonical() (hence every cache key) assumes.
        self.atoms: Tuple[Atom, ...] = tuple(dict.fromkeys(atoms))
        #: the memo of canonical(): a query never changes once built
        self._canonical = None
        body_vars = set().union(*(atom.variables() for atom in atoms)) if atoms else set()
        missing = [v for v in self.answer_vars if v not in body_vars]
        if missing:
            raise UnknownPredicate(
                f"answer variables {[str(v) for v in missing]} do not occur in the body"
            )

    @property
    def arity(self) -> int:
        return len(self.answer_vars)

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    def variables(self) -> Set[Variable]:
        result: Set[Variable] = set()
        for atom in self.atoms:
            result |= atom.variables()
        return result

    def existential_variables(self) -> Set[Variable]:
        return self.variables() - set(self.answer_vars)

    def substitute(self, mapping: Dict[Variable, Term]) -> "ConjunctiveQuery":
        atoms = tuple(atom.substitute(mapping) for atom in self.atoms)
        answer = tuple(mapping.get(v, v) for v in self.answer_vars)
        if any(isinstance(term, Constant) for term in answer):
            raise UnknownPredicate("cannot substitute a constant for an answer variable")
        return ConjunctiveQuery(answer, atoms, self.name)

    def with_atoms(self, atoms: Sequence[Atom]) -> "ConjunctiveQuery":
        """This query's head over *atoms*, built without the
        constructor's checks: for this query's atoms with its constants
        renamed one-to-one (:func:`repro.perf.canonical.bind_constants`),
        which keeps them distinct and every answer variable in the body."""
        cq = object.__new__(ConjunctiveQuery)
        cq.name = self.name
        cq.answer_vars = self.answer_vars
        cq.atoms = tuple(atoms)
        cq._canonical = None
        return cq

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Uniformly rename existential variables (used before unification)."""
        mapping = {v: Variable(f"{v.name}{suffix}") for v in self.existential_variables()}
        return self.substitute(mapping)

    def canonical(self) -> Tuple:
        """A canonical form invariant under existential-variable renaming,
        computed on the first call and kept: hashing, equality and the
        cache keys of :mod:`repro.perf.canonical` all read it."""
        if self._canonical is None:
            self._canonical = self._canonical_form()
        return self._canonical

    def _canonical_form(self) -> Tuple:
        ordering: Dict[Variable, int] = {v: i for i, v in enumerate(self.answer_vars)}

        def key(atom: Atom):
            return (
                atom.predicate,
                tuple(
                    ("v", ordering[t]) if isinstance(t, Variable) and t in ordering
                    else ("e", t.name) if isinstance(t, Variable)
                    else ("c", t.key)
                    for t in atom.args
                ),
            )

        atoms = sorted(self.atoms, key=key)
        # second pass: number existential variables by first occurrence,
        # past every answer position (a repeated answer variable keeps
        # only its last one, so len(ordering) may be smaller)
        counter = itertools.count(len(self.answer_vars))
        canon: Dict[Variable, int] = dict(ordering)
        shape = []
        for atom in atoms:
            terms = []
            for term in atom.args:
                if isinstance(term, Variable):
                    if term not in canon:
                        canon[term] = next(counter)
                    terms.append(("v", canon[term]))
                else:
                    terms.append(("c", term.key))
            shape.append((atom.predicate, tuple(terms)))
        return (self.answer_vars and len(self.answer_vars) or 0, tuple(sorted(shape)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self is other or self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(map(str, self.answer_vars))})"
        body = ", ".join(map(str, self.atoms))
        return f"{head} :- {body}"

    def __repr__(self) -> str:
        return f"CQ<{self}>"


class UnionQuery:
    """A union of conjunctive queries with a common answer arity."""

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery], name: str = "q"):
        self.name = name
        self.disjuncts: List[ConjunctiveQuery] = list(disjuncts)
        if not self.disjuncts:
            raise UnknownPredicate("a UCQ needs at least one disjunct")
        arities = {cq.arity for cq in self.disjuncts}
        if len(arities) != 1:
            raise UnknownPredicate(f"UCQ disjuncts have mixed arities: {arities}")

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def with_disjuncts(self, disjuncts: List[ConjunctiveQuery]) -> "UnionQuery":
        """A union of this name over *disjuncts*, as many as its own and
        of its arity, built without the constructor's checks."""
        ucq = object.__new__(UnionQuery)
        ucq.name = self.name
        ucq.disjuncts = disjuncts
        return ucq

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __str__(self) -> str:
        return "\n".join(str(cq) for cq in self.disjuncts)


def homomorphism_exists(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> bool:
    """True iff there is a homomorphism from *source* into *target* that is
    the identity on answer variables — i.e. *target* ⊆ *source* (the target
    is at least as restrictive, so source's answers contain target's)."""
    if len(source.answer_vars) != len(target.answer_vars):
        return False
    binding: Dict[Variable, Term] = {
        s: t for s, t in zip(source.answer_vars, target.answer_vars)
    }
    target_atoms = list(target.atoms)

    def extend(atom_index: int, binding: Dict[Variable, Term]) -> bool:
        if atom_index == len(source.atoms):
            return True
        atom = source.atoms[atom_index]
        for candidate in target_atoms:
            if candidate.predicate != atom.predicate or candidate.arity != atom.arity:
                continue
            local = dict(binding)
            ok = True
            for source_term, target_term in zip(atom.args, candidate.args):
                if isinstance(source_term, Constant):
                    if source_term != target_term:
                        ok = False
                        break
                else:
                    bound = local.get(source_term)
                    if bound is None:
                        local[source_term] = target_term
                    elif bound != target_term:
                        ok = False
                        break
            if ok and extend(atom_index + 1, local):
                return True
        return False

    return extend(0, binding)


def minimize_ucq(ucq: UnionQuery) -> UnionQuery:
    """Drop disjuncts subsumed by another disjunct (containment check).

    A disjunct ``d`` is redundant when some other kept disjunct ``d0``
    maps homomorphically into it — every answer of ``d`` is already an
    answer of ``d0``.  Shorter disjuncts (more general) are tried as
    keepers first, and a keeper whose predicates are not all in ``d``
    is skipped without entering the homomorphism search.
    """
    kept: List[Tuple[ConjunctiveQuery, FrozenSet[str]]] = []
    for disjunct in sorted(set(ucq.disjuncts), key=lambda cq: len(cq.atoms)):
        predicates = frozenset(atom.predicate for atom in disjunct.atoms)
        if not any(
            keeper_predicates <= predicates and homomorphism_exists(keeper, disjunct)
            for keeper, keeper_predicates in kept
        ):
            kept.append((disjunct, predicates))
    return UnionQuery([keeper for keeper, _predicates in kept], ucq.name)
