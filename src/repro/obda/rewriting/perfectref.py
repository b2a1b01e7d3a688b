"""PerfectRef — the classic DL-Lite query-rewriting algorithm.

Given a UCQ ``q`` and a DL-Lite TBox ``T``, PerfectRef computes a UCQ
``q'`` such that evaluating ``q'`` over *any* ABox alone gives exactly
the certain answers of ``q`` over ``<T, ABox>``: the TBox's positive
inclusions are compiled into the query.  This is the "query rewriting"
core service the paper's OBDA workflow targets (§3, §5), and the foil
for the Presto-style rewriter which uses classification instead.

The implementation follows Calvanese et al.'s applicability / atom
rewriting / reduce loop, extended with the qualified-existential rules
needed by the paper's DL-Lite dialect:

* ``B ⊑ ∃Q.A`` applies to a role atom whose filler position is unbound
  (because ``∃Q.A ⊑ ∃Q``), and to an atom *pair* ``Q(x, y), A(y)`` whose
  join variable ``y`` is existential and occurs nowhere else.

An *unbound* argument is an existential variable with a single body
occurrence.  ``reduce`` unifies two same-predicate atoms (answer
variables and constants are rigid) so previously bound variables can
become unbound, enabling further rewritings.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ...dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    RoleInclusion,
)
from ...dllite.syntax import (
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    QualifiedExistential,
)
from ...dllite.tbox import TBox
from ...errors import ReproError
from ...runtime.budget import Budget
from ..queries import (
    Atom,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
    minimize_ucq,
)

__all__ = ["perfect_ref", "RewritingTooLarge", "axiom_index"]


class RewritingTooLarge(ReproError):
    """The rewriting exceeded ``max_disjuncts`` (worst case is exponential)."""


_fresh_counter = itertools.count()


def _fresh_variable() -> Variable:
    return Variable(f"_u{next(_fresh_counter)}")


def _occurrences(cq: ConjunctiveQuery) -> Dict[Variable, int]:
    counts: Dict[Variable, int] = {}
    for atom in cq.atoms:
        for term in atom.args:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    return counts


def _is_unbound(term, cq: ConjunctiveQuery, counts: Dict[Variable, int]) -> bool:
    return (
        isinstance(term, Variable)
        and term not in cq.answer_vars
        and counts.get(term, 0) == 1
    )


def _atom_for(basic, term) -> Atom:
    """The atom asserting membership of *term* in basic concept *basic*."""
    if isinstance(basic, AtomicConcept):
        return Atom(basic.name, (term,))
    if isinstance(basic, ExistentialRole):
        role = basic.role
        if isinstance(role, AtomicRole):
            return Atom(role.name, (term, _fresh_variable()))
        return Atom(role.role.name, (_fresh_variable(), term))
    if isinstance(basic, AttributeDomain):
        return Atom(basic.attribute.name, (term, _fresh_variable()))
    raise TypeError(f"not a basic concept: {basic!r}")


def _role_atom(role, subject, object_) -> Atom:
    """``Q(subject, object)`` with inverse roles flipped to their atom form."""
    if isinstance(role, AtomicRole):
        return Atom(role.name, (subject, object_))
    return Atom(role.role.name, (object_, subject))


def _replace(cq: ConjunctiveQuery, old: Tuple[Atom, ...], new: Tuple[Atom, ...]) -> ConjunctiveQuery:
    atoms: List[Atom] = []
    removed = list(old)
    for atom in cq.atoms:
        if atom in removed:
            removed.remove(atom)
        else:
            atoms.append(atom)
    atoms.extend(new)
    # dedupe while keeping order
    seen: Set[Atom] = set()
    unique = [a for a in atoms if not (a in seen or seen.add(a))]
    return ConjunctiveQuery(cq.answer_vars, unique, cq.name)


def _rewritten_predicate(axiom) -> Optional[str]:
    """The predicate of the atoms *axiom* can rewrite (its right-hand side's)."""
    if isinstance(axiom, ConceptInclusion):
        rhs = axiom.rhs
        if isinstance(rhs, AtomicConcept):
            return rhs.name
        if isinstance(rhs, (ExistentialRole, QualifiedExistential)):
            return rhs.role.name  # an inverse role's name is its atomic role's
        if isinstance(rhs, AttributeDomain):
            return rhs.attribute.name
        return None
    if isinstance(axiom, (RoleInclusion, AttributeInclusion)):
        return axiom.rhs.name  # an inverse role's name is its atomic role's
    return None


class AxiomIndex:
    """A TBox's positive inclusions keyed by the predicate they rewrite.

    Built once per TBox generation (:func:`axiom_index`; Presto keeps
    one per classification), so the worklist visits only the axioms
    that can apply to the atoms of the CQ it pops instead of rescanning
    the TBox per CQ.
    """

    def __init__(self, tbox: TBox):
        #: the predicates whose binary atoms are role atoms (a name that
        #: is also an attribute is read as the attribute)
        self.role_names: Set[str] = {role.name for role in tbox.signature.roles} - {
            attribute.name for attribute in tbox.signature.attributes
        }
        self._by_predicate: Dict[str, List[Tuple[int, str, Axiom]]] = {}
        for position, axiom in enumerate(tbox.positive_inclusions):
            name = _rewritten_predicate(axiom)
            if name is not None:
                self._by_predicate.setdefault(name, []).append(
                    (position, name, axiom)
                )

    def axioms_for(self, predicates: Iterable[str]) -> List[Tuple[str, Axiom]]:
        """``(predicate, axiom)`` for every inclusion that can rewrite an
        atom over one of *predicates*, in TBox order."""
        entries = [
            entry
            for predicate in predicates
            for entry in self._by_predicate.get(predicate, ())
        ]
        entries.sort(key=lambda entry: entry[0])
        return [(name, axiom) for _position, name, axiom in entries]


def axiom_index(tbox: TBox) -> AxiomIndex:
    """The :class:`AxiomIndex` of *tbox* at its current generation, built
    on first use and kept on the TBox against its generation counter, as
    its fingerprint is: every rewriting against the TBox, by any system
    over it, shares one index until an axiom is added or removed.  A
    TBox without a generation counter gets a fresh index per call.
    Racing first uses build equal indexes; either may be kept."""
    generation = getattr(tbox, "generation", None)
    memo = getattr(tbox, "_axiom_index_memo", None)
    if memo is not None and generation is not None and memo[0] == generation:
        return memo[1]
    index = AxiomIndex(tbox)
    if generation is not None:
        tbox._axiom_index_memo = (generation, index)
    return index


def _atom_rewritings(
    cq: ConjunctiveQuery, index: AxiomIndex
) -> Iterator[ConjunctiveQuery]:
    counts = _occurrences(cq)
    atoms_by_pred: Dict[str, List[Atom]] = {}
    for atom in cq.atoms:
        atoms_by_pred.setdefault(atom.predicate, []).append(atom)

    for name, axiom in index.axioms_for(atoms_by_pred):
        atoms = atoms_by_pred[name]
        if isinstance(axiom, ConceptInclusion):
            rhs = axiom.rhs
            if isinstance(rhs, AtomicConcept):
                for atom in atoms:
                    if atom.arity == 1:
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, atom.args[0]),))
            elif isinstance(rhs, (ExistentialRole, QualifiedExistential)):
                if name not in index.role_names:
                    continue
                inverted = isinstance(rhs.role, InverseRole)
                for atom in atoms:
                    if atom.arity != 2:
                        continue
                    subject, object_ = atom.args
                    if inverted:
                        subject, object_ = object_, subject
                    # single-atom rule: filler side unbound
                    if _is_unbound(object_, cq, counts):
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, subject),))
                    # two-atom rule for qualified existentials
                    if isinstance(rhs, QualifiedExistential) and isinstance(
                        object_, Variable
                    ):
                        if object_ in cq.answer_vars:
                            continue
                        if counts.get(object_, 0) != 2:
                            continue
                        for filler_atom in atoms_by_pred.get(rhs.filler.name, ()):
                            if filler_atom.arity == 1 and filler_atom.args[0] == object_:
                                yield _replace(
                                    cq,
                                    (atom, filler_atom),
                                    (_atom_for(axiom.lhs, subject),),
                                )
            else:  # AttributeDomain
                for atom in atoms:
                    if atom.arity == 2 and _is_unbound(atom.args[1], cq, counts):
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, atom.args[0]),))
        elif isinstance(axiom, RoleInclusion):
            if name not in index.role_names:
                continue
            inverted = isinstance(axiom.rhs, InverseRole)
            for atom in atoms:
                if atom.arity != 2:
                    continue
                subject, object_ = atom.args
                if inverted:
                    subject, object_ = object_, subject
                yield _replace(cq, (atom,), (_role_atom(axiom.lhs, subject, object_),))
        else:  # AttributeInclusion
            for atom in atoms:
                if atom.arity == 2:
                    yield _replace(cq, (atom,), (Atom(axiom.lhs.name, atom.args),))


def _unify_atoms(
    first: Atom, second: Atom, rigid: Set[Variable]
) -> Optional[Dict[Variable, object]]:
    """MGU of two same-predicate atoms; answer vars/constants are rigid."""
    if first.predicate != second.predicate or first.arity != second.arity:
        return None
    substitution: Dict[Variable, object] = {}

    def walk(term):
        while isinstance(term, Variable) and term in substitution:
            term = substitution[term]
        return term

    for left, right in zip(first.args, second.args):
        left, right = walk(left), walk(right)
        if left == right:
            continue
        if isinstance(left, Variable) and left not in rigid:
            substitution[left] = right
        elif isinstance(right, Variable) and right not in rigid:
            substitution[right] = left
        else:
            return None
    # Flatten chains so substitute() can be applied in one pass.
    return {var: walk(var) for var in substitution}


def _reductions(cq: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
    rigid = set(cq.answer_vars)
    for first, second in itertools.combinations(cq.atoms, 2):
        unifier = _unify_atoms(first, second, rigid)
        if unifier is None:
            continue
        try:
            yield cq.substitute(unifier)
        except ReproError:
            continue


def perfect_ref(
    query: UnionQuery,
    tbox: TBox,
    max_disjuncts: int = 20000,
    minimize: bool = True,
    budget: Optional["Budget"] = None,
) -> UnionQuery:
    """Rewrite *query* w.r.t. the positive inclusions of *tbox*.

    Raises :class:`RewritingTooLarge` when the disjunct set exceeds
    *max_disjuncts* — the worst-case size is exponential in query length.
    With a *budget*, the worklist loop polls it and raises
    :class:`~repro.errors.TimeoutExceeded` instead of grinding through
    an exponential rewriting past its deadline.  The TBox's axiom index
    is shared by every call at its generation (:func:`axiom_index`).
    """
    return perfect_ref_indexed(
        query, axiom_index(tbox), max_disjuncts, minimize, budget=budget
    )


def perfect_ref_indexed(
    query: UnionQuery,
    index: AxiomIndex,
    max_disjuncts: int = 20000,
    minimize: bool = True,
    budget: Optional["Budget"] = None,
) -> UnionQuery:
    """:func:`perfect_ref` over the prebuilt axiom index of a TBox."""
    seen: Dict[object, ConjunctiveQuery] = {}
    worklist: List[ConjunctiveQuery] = []
    for disjunct in query:
        key = disjunct.canonical()
        if key not in seen:
            seen[key] = disjunct
            worklist.append(disjunct)

    while worklist:
        if budget is not None:
            budget.check()
        current = worklist.pop()
        produced = itertools.chain(
            _atom_rewritings(current, index), _reductions(current)
        )
        for candidate in produced:
            key = candidate.canonical()
            if key in seen:
                continue
            seen[key] = candidate
            worklist.append(candidate)
            if len(seen) > max_disjuncts:
                raise RewritingTooLarge(
                    f"PerfectRef exceeded {max_disjuncts} disjuncts"
                )
    result = UnionQuery(list(seen.values()), name=query.name)
    return minimize_ucq(result) if minimize else result
