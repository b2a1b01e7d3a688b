"""The indexed and prefiltered loops of the cold query path, each checked
against the unfiltered reference it replaced (kept below).

* PerfectRef's atom rewriting visits only the axioms indexed under the
  predicates of the CQ it rewrites; a full scan of the TBox's positive
  inclusions must yield the same candidates in the same order.
* Subsumption pruning (``minimize_ucq``, ``prune_ucq``) and constraint
  pruning (``prune_ucq_with_constraints``) skip a keeper whose
  predicates the candidate cannot cover; without that prefilter the
  loops must keep the same disjuncts in the same order.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterator, List, Set

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.dllite.axioms import AttributeInclusion, ConceptInclusion, RoleInclusion
from repro.dllite.syntax import (
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    QualifiedExistential,
)
from repro.dllite.tbox import TBox
from repro.obda.constraints import (
    prune_ucq_with_constraints,
    weakening_homomorphism_exists,
)
from repro.obda.queries import (
    Atom,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
    homomorphism_exists,
    minimize_ucq,
)
from repro.obda.rewriting.perfectref import (
    AxiomIndex,
    RewritingTooLarge,
    _atom_for,
    _atom_rewritings,
    _is_unbound,
    _occurrences,
    _replace,
    _role_atom,
    perfect_ref,
)
from repro.perf.prune import prune_ucq
from repro.testkit.generators import (
    FuzzProfile,
    random_profile_tbox,
    random_queries,
    random_tiny_tbox,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- references -----------------------------------------------------------------


def full_scan_rewritings(
    cq: ConjunctiveQuery, tbox: TBox
) -> Iterator[ConjunctiveQuery]:
    """Atom rewriting by testing every positive inclusion of *tbox*."""
    kinds: Dict[str, str] = {}
    for concept in tbox.signature.concepts:
        kinds[concept.name] = "concept"
    for role in tbox.signature.roles:
        kinds[role.name] = "role"
    for attribute in tbox.signature.attributes:
        kinds[attribute.name] = "attribute"
    counts = _occurrences(cq)
    atoms_by_pred: Dict[str, List[Atom]] = {}
    for atom in cq.atoms:
        atoms_by_pred.setdefault(atom.predicate, []).append(atom)

    for axiom in tbox.positive_inclusions:
        if isinstance(axiom, ConceptInclusion):
            rhs = axiom.rhs
            if isinstance(rhs, AtomicConcept):
                for atom in atoms_by_pred.get(rhs.name, ()):
                    if atom.arity == 1:
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, atom.args[0]),))
            elif isinstance(rhs, (ExistentialRole, QualifiedExistential)):
                role = rhs.role
                name = role.name if isinstance(role, AtomicRole) else role.role.name
                inverted = isinstance(role, InverseRole)
                for atom in atoms_by_pred.get(name, ()):
                    if atom.arity != 2 or kinds.get(name) != "role":
                        continue
                    subject, object_ = atom.args
                    if inverted:
                        subject, object_ = object_, subject
                    if _is_unbound(object_, cq, counts):
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, subject),))
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
            elif isinstance(rhs, AttributeDomain):
                for atom in atoms_by_pred.get(rhs.attribute.name, ()):
                    if atom.arity == 2 and _is_unbound(atom.args[1], cq, counts):
                        yield _replace(cq, (atom,), (_atom_for(axiom.lhs, atom.args[0]),))
        elif isinstance(axiom, RoleInclusion):
            rhs_role = axiom.rhs
            name = (
                rhs_role.name if isinstance(rhs_role, AtomicRole) else rhs_role.role.name
            )
            for atom in atoms_by_pred.get(name, ()):
                if atom.arity != 2 or kinds.get(name) != "role":
                    continue
                subject, object_ = atom.args
                if isinstance(rhs_role, InverseRole):
                    subject, object_ = object_, subject
                yield _replace(cq, (atom,), (_role_atom(axiom.lhs, subject, object_),))
        elif isinstance(axiom, AttributeInclusion):
            for atom in atoms_by_pred.get(axiom.rhs.name, ()):
                if atom.arity == 2:
                    yield _replace(cq, (atom,), (Atom(axiom.lhs.name, atom.args),))


def unfiltered_minimize(ucq: UnionQuery) -> List[ConjunctiveQuery]:
    """The shortest-first keeper loop without the predicate prefilter."""
    kept: List[ConjunctiveQuery] = []
    for disjunct in sorted(set(ucq.disjuncts), key=lambda cq: len(cq.atoms)):
        if not any(homomorphism_exists(keeper, disjunct) for keeper in kept):
            kept.append(disjunct)
    return kept


def unfiltered_constraint_prune(
    ucq: UnionQuery, inclusions: FrozenSet
) -> List[ConjunctiveQuery]:
    """Constraint pruning's elimination loop without the prefilter."""
    candidates = sorted(set(ucq.disjuncts), key=lambda cq: (len(cq.atoms), str(cq)))
    removed: Set[int] = set()
    for index, disjunct in enumerate(candidates):
        if any(
            weakening_homomorphism_exists(keeper, disjunct, inclusions)
            for position, keeper in enumerate(candidates)
            if position != index and position not in removed
        ):
            removed.add(index)
    return [cq for index, cq in enumerate(candidates) if index not in removed]


# -- inputs ---------------------------------------------------------------------


def random_ucq(rng: random.Random, tbox: TBox) -> UnionQuery:
    """Generated single-disjunct queries merged into one UCQ, plus (when it
    stays small) the PerfectRef expansion of the first, so the union holds
    many mutually subsuming disjuncts."""
    queries = random_queries(rng, tbox, FuzzProfile(max_queries=8))
    disjuncts = [cq for query in queries for cq in query.disjuncts]
    try:
        expanded = perfect_ref(UnionQuery(disjuncts[:1]), tbox, max_disjuncts=300, minimize=False)
        disjuncts.extend(expanded.disjuncts)
    except RewritingTooLarge:
        pass
    return UnionQuery(disjuncts, name="merged")


def random_inclusions(rng: random.Random, ucq: UnionQuery) -> FrozenSet:
    """A random set of ``(sub, sup)`` pairs among same-arity predicates."""
    arity: Dict[str, int] = {}
    for cq in ucq.disjuncts:
        for atom in cq.atoms:
            arity[atom.predicate] = atom.arity
    names = sorted(arity)
    return frozenset(
        (sub, sup)
        for sub in names
        for sup in names
        if sub != sup and arity[sub] == arity[sup] and rng.random() < 0.35
    )


def random_tbox(rng: random.Random) -> TBox:
    if rng.random() < 0.5:
        return random_tiny_tbox(rng)
    return random_profile_tbox(rng, FuzzProfile(max_concepts=16, max_roles=4))


# -- properties -----------------------------------------------------------------


@SETTINGS
@given(st.integers(0, 10_000))
def test_indexed_atom_rewriting_equals_full_scan(seed):
    rng = random.Random(f"axiom-index:{seed}")
    tbox = random_tbox(rng)
    index = AxiomIndex(tbox)
    for cq in random_ucq(rng, tbox).disjuncts[:60]:
        indexed = [candidate.canonical() for candidate in _atom_rewritings(cq, index)]
        scanned = [candidate.canonical() for candidate in full_scan_rewritings(cq, tbox)]
        assert indexed == scanned, str(cq)


@SETTINGS
@given(st.integers(0, 10_000))
def test_prefiltered_subsumption_pruning_equals_unfiltered(seed):
    rng = random.Random(f"minimize:{seed}")
    ucq = random_ucq(rng, random_tbox(rng))
    expected = [str(cq) for cq in unfiltered_minimize(ucq)]
    assert [str(cq) for cq in minimize_ucq(ucq)] == expected
    pruned = prune_ucq(ucq)
    assert [str(cq) for cq in pruned.ucq] == expected
    assert (pruned.before, pruned.after) == (len(ucq.disjuncts), len(expected))


@SETTINGS
@given(st.integers(0, 10_000))
def test_prefiltered_constraint_pruning_equals_unfiltered(seed):
    rng = random.Random(f"constraint-prune:{seed}")
    ucq = random_ucq(rng, random_tbox(rng))
    inclusions = random_inclusions(rng, ucq)
    pruned = prune_ucq_with_constraints(ucq, inclusions)
    expected = unfiltered_constraint_prune(ucq, inclusions)
    assert [str(cq) for cq in pruned.ucq] == [str(cq) for cq in expected]
    assert pruned.after == len(expected)
