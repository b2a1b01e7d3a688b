"""Tableau-style baseline classifiers (the Pellet / HermiT / FaCT++ analogues).

The tableau reasoners compared in Figure 1 classify an ontology by
running *pairwise subsumption tests*: ``S1 ⊑ S2`` holds iff
``S1 ⊓ ¬S2`` is unsatisfiable w.r.t. the TBox.  That algorithmic shape —
a satisfiability test per candidate pair, against one global closure for
the graph-based technique — is what makes them orders of magnitude
slower on large ontologies, and it is exactly the shape we reproduce:

``PairwiseTableauReasoner`` (Pellet analogue)
    One satisfiability test per ordered pair of named predicates, with
    the implied-type set recomputed from scratch for every test
    (Θ(n² · E)).  This is the engine that hits the timeout on the
    Galen- and FMA-shaped ontologies, as Pellet does in the paper.

``MemoizedTableauReasoner`` (HermiT analogue)
    Same test loop, but the per-predicate implied-type sets are cached
    across tests (Θ(n · E) + Θ(n²) set lookups).  Completes everywhere,
    noticeably slower than the graph closure — matching HermiT's column.

``DenseMatrixTableauReasoner`` (FaCT++ analogue)
    Materializes the full n×n reachability matrix densely (numpy boolean
    squaring).  Fast on small/medium inputs, but its quadratic memory is
    capped by ``memory_limit_cells``; exceeding the cap raises
    :class:`MemoryError`, reproducing FaCT++'s "out of memory" cell on
    FMA 2.0 (the harness renders it as such).

All three are sound and complete for DL-Lite_R/A (they reuse the same
per-node consequence step), so on the ontologies where they finish they
agree with the graph classifier — like the real systems in Figure 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..dllite.axioms import (
    AttributeInclusion,
    ConceptInclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    NegatedAttribute,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
    inverse_of,
)
from ..dllite.tbox import TBox
from ..runtime.budget import Budget
from .base import NamedClassification, Reasoner
from .saturation import _make

__all__ = [
    "PairwiseTableauReasoner",
    "MemoizedTableauReasoner",
    "DenseMatrixTableauReasoner",
]


class _AxiomIndex:
    """Told successors of each basic expression, plus the negative pairs.

    This is the "completion rule" table a tableau engine consults when
    expanding a node label; building it is linear in the TBox.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self.successors: Dict[object, List[object]] = {}
        self.negative: List[Tuple[object, object]] = []
        self.qualified_axioms: List[Tuple[object, object, AtomicConcept]] = []

        def arc(source, target):
            self.successors.setdefault(source, []).append(target)

        for axiom in tbox:
            if isinstance(axiom, ConceptInclusion):
                if isinstance(axiom.rhs, NegatedConcept):
                    self.negative.append((axiom.lhs, axiom.rhs.concept))
                elif isinstance(axiom.rhs, QualifiedExistential):
                    arc(axiom.lhs, ExistentialRole(axiom.rhs.role))
                    self.qualified_axioms.append(
                        (axiom.lhs, axiom.rhs.role, axiom.rhs.filler)
                    )
                else:
                    arc(axiom.lhs, axiom.rhs)
            elif isinstance(axiom, RoleInclusion):
                if isinstance(axiom.rhs, NegatedRole):
                    self.negative.append((axiom.lhs, axiom.rhs.role))
                else:
                    lhs, rhs = axiom.lhs, axiom.rhs
                    arc(lhs, rhs)
                    arc(inverse_of(lhs), inverse_of(rhs))
                    arc(ExistentialRole(lhs), ExistentialRole(rhs))
                    arc(
                        ExistentialRole(inverse_of(lhs)),
                        ExistentialRole(inverse_of(rhs)),
                    )
            elif isinstance(axiom, AttributeInclusion):
                if isinstance(axiom.rhs, NegatedAttribute):
                    self.negative.append((axiom.lhs, axiom.rhs.attribute))
                else:
                    arc(axiom.lhs, axiom.rhs)
                    arc(AttributeDomain(axiom.lhs), AttributeDomain(axiom.rhs))

    def named_predicates(self) -> List:
        named: List = []
        named.extend(sorted(self.tbox.signature.concepts, key=lambda c: c.name))
        named.extend(sorted(self.tbox.signature.roles, key=lambda r: r.name))
        named.extend(sorted(self.tbox.signature.attributes, key=lambda a: a.name))
        return named

    def implied_types(self, seed) -> Set:
        """The label a tableau node seeded with *seed* is expanded to."""
        label = {seed}
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for target in self.successors.get(node, ()):
                if target not in label:
                    label.add(target)
                    frontier.append(target)
        return label

    def has_clash(self, label: Set) -> bool:
        """True iff *label* contains both sides of some negative inclusion."""
        for first, second in self.negative:
            if first in label and second in label:
                return True
        return False


def _companions(node):
    if isinstance(node, AtomicRole):
        return (
            node,
            InverseRole(node),
            ExistentialRole(node),
            ExistentialRole(InverseRole(node)),
        )
    return (node,)


class _TableauBase(Reasoner):
    """Shared classification loop: unsat detection, then pairwise tests."""

    def classify_named(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> NamedClassification:
        index = _AxiomIndex(tbox)
        named = index.named_predicates()
        label_of = self._label_oracle(index, watch)

        # Phase 1 — satisfiability of every named predicate (one test each,
        # with the qualified-filler fixpoint folded in).
        unsat = self._unsatisfiable(index, named, label_of, watch)

        # Phase 2 — the pairwise subsumption tests.
        subsumptions = set()
        for lhs in named:
            if watch is not None:
                watch.check()
            if lhs in unsat:
                for rhs in named:
                    if rhs is not lhs and _same_sort(lhs, rhs):
                        subsumptions.add(_make(lhs, rhs))
                continue
            label = label_of(lhs)
            for rhs in named:
                if rhs is lhs or not _same_sort(lhs, rhs):
                    continue
                if self._subsumption_test(label, rhs):
                    subsumptions.add(_make(lhs, rhs))
        return NamedClassification(frozenset(subsumptions), frozenset(unsat))

    def measure(self, tbox: TBox, watch: Optional[Budget] = None) -> int:
        """Benchmark path: run the same test loop, count instead of build."""
        index = _AxiomIndex(tbox)
        named = index.named_predicates()
        label_of = self._label_oracle(index, watch)
        unsat = self._unsatisfiable(index, named, label_of, watch)
        count = 0
        for lhs in named:
            if watch is not None:
                watch.check()
            if lhs in unsat:
                count += sum(
                    1 for rhs in named if rhs is not lhs and _same_sort(lhs, rhs)
                )
                continue
            label = label_of(lhs)
            for rhs in named:
                if rhs is lhs or not _same_sort(lhs, rhs):
                    continue
                if self._subsumption_test(label, rhs):
                    count += 1
        return count

    # -- hooks ------------------------------------------------------------------

    def _label_oracle(self, index: _AxiomIndex, watch):
        raise NotImplementedError

    def _subsumption_test(self, label: Set, rhs) -> bool:
        """``lhs ⊑ rhs`` given lhs's expanded label (clash with ¬rhs?)."""
        return rhs in label

    # -- shared unsat machinery ----------------------------------------------------

    def _unsatisfiable(self, index: _AxiomIndex, named, label_of, watch) -> Set:
        """Satisfiability test per node of the full universe, to a fixpoint.

        A seed is unsatisfiable when its expanded label clashes directly
        (both sides of a negative inclusion), contains an already-dead
        node, or contains the left-hand side of a ``B ⊑ ∃Q.A`` axiom whose
        filler or role has died.  A dead role drags its inverse, domain
        and range along (one pair in the role would populate all four).
        """
        signature = index.tbox.signature
        universe: List = list(signature.concepts)
        for role in signature.roles:
            universe.extend(_companions(role))
        for attribute in signature.attributes:
            universe.append(attribute)
            universe.append(AttributeDomain(attribute))

        unsat: Set = set()
        changed = True
        while changed:
            if watch is not None:
                watch.check()
            changed = False
            dead_sources = {
                lhs
                for lhs, role, filler in index.qualified_axioms
                if filler in unsat or role in unsat
            }
            for seed in universe:
                if seed in unsat:
                    continue
                label = label_of(seed)
                clashing = (
                    index.has_clash(label)
                    or any(node in unsat for node in label)
                    or any(node in dead_sources for node in label)
                )
                if not clashing:
                    continue
                group = {seed}
                base = seed.role if isinstance(seed, ExistentialRole) else seed
                if isinstance(base, InverseRole):
                    base = base.role
                if isinstance(base, AtomicRole):
                    group |= set(_companions(base))
                if isinstance(seed, AttributeDomain):
                    group.add(seed.attribute)
                if isinstance(seed, AtomicAttribute):
                    group.add(AttributeDomain(seed))
                if group - unsat:
                    unsat |= group
                    changed = True
        return {node for node in unsat if node in set(named)}


def _same_sort(lhs, rhs) -> bool:
    if isinstance(lhs, AtomicConcept):
        return isinstance(rhs, AtomicConcept)
    if isinstance(lhs, AtomicRole):
        return isinstance(rhs, AtomicRole)
    return isinstance(rhs, AtomicAttribute)


class PairwiseTableauReasoner(_TableauBase):
    """Pellet analogue — one *confirmation satisfiability test per
    candidate subsumption*, with no caching across tests.

    Real tableau classifiers prune the n² pair space with a cheap
    traversal (told subsumers / top-search) and then *confirm* each
    surviving candidate with a full satisfiability test.  The analogue
    reproduces that cost structure: a single cheap expansion per concept
    finds the candidates, and every candidate pays a fresh, uncached
    re-expansion — Θ(n·L + S·L) where ``S`` is the number of
    subsumptions.  On ontologies with many inferred subsumptions
    (EL-Galen-, Galen- and FMA 2.0-shaped rows) the confirmation phase
    explodes, which is exactly where Figure 1 shows Pellet timing out.
    """

    name = "tableau-pairwise"

    def _label_oracle(self, index: _AxiomIndex, watch):
        def label_of(seed):
            if watch is not None:
                watch.check()
            return index.implied_types(seed)

        return label_of

    def _classify(self, tbox, watch, collect):
        index = _AxiomIndex(tbox)
        named = index.named_predicates()
        named_set = set(named)
        label_of = self._label_oracle(index, watch)
        unsat = self._unsatisfiable(index, named, label_of, watch)
        for lhs in named:
            if lhs in unsat:
                for rhs in named:
                    if rhs is not lhs and _same_sort(lhs, rhs):
                        collect(lhs, rhs)
                continue
            # top-search phase: one cheap expansion to find candidates
            candidates = [
                rhs
                for rhs in label_of(lhs)
                if rhs is not lhs and rhs in named_set and _same_sort(lhs, rhs)
            ]
            for rhs in candidates:
                # confirmation phase: a fresh, uncached satisfiability test
                if rhs in label_of(lhs):
                    collect(lhs, rhs)
        return unsat

    def classify_named(self, tbox, watch=None):
        subsumptions = set()
        unsat = self._classify(
            tbox, watch, lambda lhs, rhs: subsumptions.add(_make(lhs, rhs))
        )
        return NamedClassification(frozenset(subsumptions), frozenset(unsat))

    def measure(self, tbox, watch=None) -> int:
        counter = [0]

        def collect(lhs, rhs):
            counter[0] += 1

        self._classify(tbox, watch, collect)
        return counter[0]


class MemoizedTableauReasoner(_TableauBase):
    """HermiT analogue — caches each predicate's expanded label across tests.

    The cache models the model-caching a hypertableau engine performs; its
    footprint is accounted for in label entries and capped
    (``memory_limit_entries``) so that pathologically wide ontologies run
    out of memory — reproducing HermiT's "out of memory" cell on the
    FMA 2.0-shaped workload in Figure 1.
    """

    name = "tableau-memoized"

    def __init__(self, memory_limit_entries: int = 4_000_000):
        self.memory_limit_entries = memory_limit_entries

    def _label_oracle(self, index: _AxiomIndex, watch):
        cache: Dict[object, Set] = {}
        footprint = [0]

        def label_of(seed):
            label = cache.get(seed)
            if label is None:
                if watch is not None:
                    watch.check()
                label = index.implied_types(seed)
                cache[seed] = label
                footprint[0] += len(label)
                if footprint[0] > self.memory_limit_entries:
                    raise MemoryError(
                        f"label cache exceeded {self.memory_limit_entries} entries"
                    )
            return label

        return label_of


class DenseMatrixTableauReasoner(_TableauBase):
    """FaCT++ analogue — dense boolean reachability matrix, memory-capped."""

    name = "tableau-dense"

    def __init__(self, memory_limit_cells: int = 16_000_000):
        # The default cap admits every Figure 1 workload except the FMA 2.0
        # profile (whose ~5k-node universe needs ~25M cells), reproducing
        # FaCT++'s out-of-memory cell on that row.
        self.memory_limit_cells = memory_limit_cells

    def measure(self, tbox: TBox, watch: Optional[Budget] = None) -> int:
        import numpy

        matrix, position, universe, index, named, unsat = self._closure_matrix(
            tbox, watch
        )
        count = 0
        named_positions: Dict[str, List[int]] = {}
        for lhs in named:
            if lhs in unsat:
                count += sum(
                    1 for rhs in named if rhs is not lhs and _same_sort(lhs, rhs)
                )
                continue
            row = matrix[position[lhs]]
            for rhs in named:
                if rhs is lhs or not _same_sort(lhs, rhs):
                    continue
                if row[position[rhs]]:
                    count += 1
        return count

    def _closure_matrix(self, tbox: TBox, watch: Optional[Budget]):
        import numpy

        index = _AxiomIndex(tbox)
        universe: List = []
        position: Dict[object, int] = {}

        def intern(node) -> int:
            slot = position.get(node)
            if slot is None:
                slot = len(universe)
                position[node] = slot
                universe.append(node)
            return slot

        for concept in tbox.signature.concepts:
            intern(concept)
        for role in tbox.signature.roles:
            for node in _companions(role):
                intern(node)
        for attribute in tbox.signature.attributes:
            intern(attribute)
            intern(AttributeDomain(attribute))

        size = len(universe)
        if size * size > self.memory_limit_cells:
            raise MemoryError(
                f"dense reachability matrix would need {size}x{size} cells, "
                f"over the {self.memory_limit_cells}-cell cap"
            )
        matrix = numpy.zeros((size, size), dtype=numpy.float32)
        for source, targets in index.successors.items():
            for target in targets:
                matrix[intern(source), intern(target)] = 1.0
        numpy.fill_diagonal(matrix, 1.0)
        while True:
            if watch is not None:
                watch.check()
            squared = ((matrix @ matrix) > 0.0).astype(numpy.float32)
            if (squared == matrix).all():
                break
            matrix = squared
        matrix = matrix > 0.0

        label_cache: Dict[object, Set] = {}

        def label_of(seed):
            label = label_cache.get(seed)
            if label is None:
                row = matrix[position[seed]]
                label = {universe[i] for i in numpy.flatnonzero(row)}
                label_cache[seed] = label
            return label

        named = index.named_predicates()
        unsat = self._unsatisfiable(index, named, label_of, watch)
        return matrix, position, universe, index, named, unsat

    def classify_named(
        self, tbox: TBox, watch: Optional[Budget] = None
    ) -> NamedClassification:
        matrix, position, universe, index, named, unsat = self._closure_matrix(
            tbox, watch
        )
        subsumptions = set()
        for lhs in named:
            if lhs in unsat:
                for rhs in named:
                    if rhs is not lhs and _same_sort(lhs, rhs):
                        subsumptions.add(_make(lhs, rhs))
                continue
            row = matrix[position[lhs]]
            for rhs in named:
                if rhs is lhs or not _same_sort(lhs, rhs):
                    continue
                if row[position[rhs]]:
                    subsumptions.add(_make(lhs, rhs))
        return NamedClassification(frozenset(subsumptions), frozenset(unsat))
