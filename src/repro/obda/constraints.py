"""Extensional mapping constraints for pruning redundant UCQ disjuncts.

Rewriting compiles the TBox into the UCQ, so the unfolded-SQL path
evaluates every disjunct over the *raw* mapped extents — no further
inference happens below the rewriting.  That makes a purely extensional
notion of redundancy sound for that path: if, at the current database
generation, the extent of predicate ``q`` is contained in the extent of
predicate ``p`` (an *exactness/completeness* constraint over the
mappings in the sense of Hovland et al., "OBDA Constraints for Effective
Query Answering"), then any disjunct asking ``q`` where a kept disjunct
asks ``p`` is answer-subsumed and can be dropped before it ever becomes
SQL.

:class:`ExtensionalConstraints` discovers such inclusions lazily from an
:class:`~repro.obda.evaluation.ExtentProvider` and caches the verdicts
per database generation; :func:`prune_ucq_with_constraints` then runs
the same keeper loop as :func:`repro.perf.prune.prune_ucq` but with a
*predicate-weakening* homomorphism: a keeper atom ``p(t)`` may map onto
a candidate atom ``q(s)`` whenever ``p == q`` or ``extent(q) ⊆
extent(p)``.  Plain subsumption is the special case with no inclusions,
so constraint pruning only ever drops more.

Because the inclusions are data-dependent, everything downstream of the
pruned UCQ (notably the unfolding cache in
:class:`~repro.obda.system.OBDASystem`) must key on
:meth:`ExtensionalConstraints.fingerprint`, which changes whenever the
discovered inclusion set does.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..obs.metrics import global_metrics
from ..runtime.budget import Budget
from .evaluation import ExtentProvider
from .queries import Constant, ConjunctiveQuery, UnionQuery, Variable

__all__ = [
    "ExtensionalConstraints",
    "prune_ucq_with_constraints",
    "weakening_homomorphism_exists",
]

#: ``(sub, sup)`` — every tuple of *sub*'s extent is in *sup*'s extent
Inclusion = Tuple[str, str]


class ExtensionalConstraints:
    """Generation-cached extent-inclusion facts over one provider."""

    def __init__(self, extents: ExtentProvider):
        self.extents = extents
        self._lock = threading.Lock()
        self._generation = extents.generation()
        self._verdicts: Dict[Tuple[str, str, int], bool] = {}

    def _current_verdicts(self) -> Dict[Tuple[str, str, int], bool]:
        with self._lock:
            generation = self.extents.generation()
            if generation != self._generation:
                # Copy-on-write: discovery in flight keeps its snapshot.
                self._verdicts = {}
                self._generation = generation
            return self._verdicts

    def inclusion_holds(
        self,
        sub: str,
        sup: str,
        arity: int,
        budget: Optional[Budget] = None,
        extents: Optional[ExtentProvider] = None,
    ) -> bool:
        """True iff extent(*sub*) ⊆ extent(*sup*) at the current generation.

        *extents*, when given, is the access path for the pulls (e.g. a
        retry-wrapped view of the same provider); verdicts still key on
        the bound provider's generation.
        """
        if sub == sup:
            return True
        provider = extents if extents is not None else self.extents
        verdicts = self._current_verdicts()
        key = (sub, sup, arity)
        cached = verdicts.get(key)
        if cached is not None:
            return cached
        sub_extent = provider.extent(sub, arity)
        sup_extent = provider.extent(sup, arity)
        holds = True
        for row in sub_extent:
            if budget is not None:
                budget.tick()
            if row not in sup_extent:
                holds = False
                break
        global_metrics().counter("obda.constraints.checks").inc()
        with self._lock:
            if self._verdicts is verdicts:  # snapshot still current — memoize
                verdicts.setdefault(key, holds)
                return verdicts[key]
        return holds

    def relevant_inclusions(
        self,
        ucq: UnionQuery,
        budget: Optional[Budget] = None,
        extents: Optional[ExtentProvider] = None,
    ) -> FrozenSet[Inclusion]:
        """All inclusions among same-arity predicates mentioned in *ucq*."""
        arities: Dict[str, Set[int]] = {}
        for disjunct in ucq.disjuncts:
            for atom in disjunct.atoms:
                arities.setdefault(atom.predicate, set()).add(atom.arity)
        inclusions: Set[Inclusion] = set()
        predicates = sorted(arities)
        for sub in predicates:
            for sup in predicates:
                if sub == sup:
                    continue
                shared = arities[sub] & arities[sup]
                if not shared:
                    continue
                if budget is not None:
                    budget.check()
                if all(
                    self.inclusion_holds(
                        sub, sup, arity, budget=budget, extents=extents
                    )
                    for arity in shared
                ):
                    inclusions.add((sub, sup))
        return frozenset(inclusions)

    def generation(self) -> int:
        return self.extents.generation()

    @staticmethod
    def fingerprint(inclusions: FrozenSet[Inclusion]) -> Tuple[Inclusion, ...]:
        """A hashable, order-stable cache-key component for *inclusions*."""
        return tuple(sorted(inclusions))


def weakening_homomorphism_exists(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    inclusions: FrozenSet[Inclusion],
) -> bool:
    """Homomorphism from *source* into *target*, identity on answer
    variables, where a source atom ``p(t)`` may land on a target atom
    ``q(s)`` whenever ``p == q`` or ``(q, p)`` is a known inclusion —
    i.e. over raw extents, satisfying ``q`` implies satisfying ``p``, so
    *target*'s answers are contained in *source*'s."""
    if len(source.answer_vars) != len(target.answer_vars):
        return False
    binding: Dict[Variable, object] = {
        s: t for s, t in zip(source.answer_vars, target.answer_vars)
    }
    target_atoms = list(target.atoms)

    def extend(atom_index: int, binding: Dict[Variable, object]) -> bool:
        if atom_index == len(source.atoms):
            return True
        atom = source.atoms[atom_index]
        for candidate in target_atoms:
            if candidate.arity != atom.arity:
                continue
            if (
                candidate.predicate != atom.predicate
                and (candidate.predicate, atom.predicate) not in inclusions
            ):
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


def prune_ucq_with_constraints(
    ucq: UnionQuery,
    inclusions: FrozenSet[Inclusion],
    budget: Optional[Budget] = None,
) -> "PruneResult":
    """Drop disjuncts answer-subsumed (over raw extents) by a kept one.

    Unlike the keeper loop of :func:`repro.perf.prune.prune_ucq` (where
    equal-length mutual homomorphism means equivalence, so either side
    may be kept), the weakening matcher is *directional*: ``Teacher(x)``
    subsumes ``Professor(x)`` under ``extent(Professor) ⊆
    extent(Teacher)`` but not vice versa.  The elimination pass below is
    therefore order-insensitive: a disjunct is dropped when any other
    still-alive disjunct weakening-maps into it.  A mutually-subsuming
    pair loses exactly one member (the witness of the first removal is
    itself kept alive by that removal), so the union never empties.
    """
    # Deferred: repro.perf.prune imports repro.obda.queries, so a
    # module-level import here would be circular when perf loads first.
    from ..perf.prune import PruneResult

    before = len(ucq.disjuncts)
    candidates = sorted(
        set(ucq.disjuncts), key=lambda cq: (len(cq.atoms), str(cq))
    )
    supers: Dict[str, Set[str]] = {}
    for sub, sup in inclusions:
        supers.setdefault(sub, set()).add(sup)
    predicates = [frozenset(atom.predicate for atom in cq.atoms) for cq in candidates]
    # Prefilter: a keeper maps into a disjunct only if the disjunct covers
    # each keeper predicate p, by p itself or by some q with (q, p) known.
    covered = [
        own.union(*(supers.get(predicate, ()) for predicate in own))
        for own in predicates
    ]
    removed: Set[int] = set()
    for index, disjunct in enumerate(candidates):
        if budget is not None:
            budget.check()
        if any(
            predicates[position] <= covered[index]
            and weakening_homomorphism_exists(keeper, disjunct, inclusions)
            for position, keeper in enumerate(candidates)
            if position != index and position not in removed
        ):
            removed.add(index)
    kept: List[ConjunctiveQuery] = [
        disjunct
        for index, disjunct in enumerate(candidates)
        if index not in removed
    ]
    dropped = before - len(kept)
    if dropped:
        global_metrics().counter("obda.constraints.pruned_disjuncts").inc(dropped)
    return PruneResult(UnionQuery(kept, ucq.name), before, len(kept))
