"""The OBDA system: ontology + mappings + sources, with certain-answer
query answering and consistency checking (paper §1, §3).

``OBDASystem`` wires the whole stack together::

    ontology (TBox)          repro.dllite / repro.core (classification)
       |  mappings           repro.obda.mapping
       v
    relational sources       repro.obda.sql

Query answering methods:

* ``"perfectref"``  — PerfectRef UCQ rewriting, evaluated over the
  virtual extents pulled through the mappings;
* ``"perfectref-sql"`` — same rewriting, but *unfolded* into source-level
  SQL algebra whose parts run as conjunctive queries over the source
  tables, through the same compiled join over the tables' indexes (the
  textbook OBDA pipeline);
* ``"perfectref-sqlite"`` — same unfolding, but pushed down as SQL
  statements to a SQLite replica of the sources
  (:mod:`repro.obda.sql.backends`);
* ``"presto"`` — classification-driven datalog rewriting (the paper's
  motivation for fast classification), evaluated over virtual extents.

All four return the same certain answers; the test-suite asserts it.

Consistency checking follows the standard reduction: every negative
inclusion becomes a boolean violation query (rewritten, so inferred
memberships count), and every functionality assertion is checked on the
rewritten extent of its role/attribute.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from ..core.classifier import GraphClassifier
from ..core.classify import Classification
from ..dllite.abox import ABox
from ..dllite.axioms import (
    AttributeInclusion,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
    RoleInclusion,
)
from ..dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
)
from ..dllite.tbox import TBox
from ..errors import InconsistentOntology, ReproError
from ..obs.trace import current_tracer
from ..runtime.budget import Budget
from ..runtime.execution import ExecutionContext
from .cq_parser import parse_query
from .evaluation import (
    ABoxExtents,
    DatalogExtents,
    ExtentProvider,
    MappingExtents,
    evaluate_ucq,
    evaluate_ucq_delta,
)
from .mapping import MappingCollection
from .queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from .rewriting.perfectref import perfect_ref
from .rewriting.presto import presto_rewrite
from .rewriting.unfolding import unfold
from .sql.database import Database
from .sql.stats import StatisticsCatalog
from .sql.table import ended, grown_tables

__all__ = ["OBDASystem"]

_X = Variable("x")
_Y = Variable("y")
_Z = Variable("z")


def _membership_atoms(basic, variable: Variable, fresh: str) -> List[Atom]:
    """Query atoms asserting membership of *variable* in a basic concept."""
    if isinstance(basic, AtomicConcept):
        return [Atom(basic.name, (variable,))]
    if isinstance(basic, ExistentialRole):
        role = basic.role
        if isinstance(role, AtomicRole):
            return [Atom(role.name, (variable, Variable(fresh)))]
        return [Atom(role.role.name, (Variable(fresh), variable))]
    if isinstance(basic, AttributeDomain):
        return [Atom(basic.attribute.name, (variable, Variable(fresh)))]
    raise TypeError(f"not a basic concept: {basic!r}")


def _role_atom(role, subject: Variable, object_: Variable) -> Atom:
    if isinstance(role, AtomicRole):
        return Atom(role.name, (subject, object_))
    return Atom(role.role.name, (object_, subject))


class _Stamped(NamedTuple):
    """A cached result: the data generation it was last confirmed at,
    the stamps of what it read (None when none are kept, and then a
    moved generation recomputes it) and its answers."""

    generation: int
    stamps: Optional[tuple]
    answers: FrozenSet[Tuple]


class _Delta(NamedTuple):
    """What grew since a result's stamps: per predicate and arity, or
    per table name, the rows added (empty when nothing grew), and what a
    reader needs to stamp the result again."""

    grown: Dict[object, Sequence[Tuple]]
    reads: object


class _OverExtents:
    """A UCQ over an extent provider.  Its stamps are ``(predicate,
    arity, version)`` per predicate it reads, for the snapshot the
    answers were computed from."""

    span = "evaluate"
    phase = "evaluate"

    def __init__(self, ucq: UnionQuery, provider: ExtentProvider, stamped: bool):
        self.ucq = ucq
        self.provider = provider
        self.stamped = stamped

    def annotate(self, span) -> None:
        span.set("disjuncts", len(self.ucq))

    def full(self, budget) -> Tuple[Set[Tuple], Optional[tuple]]:
        read: dict = {}
        answers = evaluate_ucq_delta(self.ucq, self.provider, read, budget=budget)
        return answers, _versions(read) if self.stamped else None

    def delta(self, stamps: tuple) -> Optional[_Delta]:
        """The rows each stamped snapshot added since, or None when one
        moved other than by one delta (``Snapshot.base``) or added more
        rows than it held before."""
        read: dict = {}
        grown: dict = {}
        for predicate, arity, version in stamps:
            snapshot = read[predicate, arity] = self.provider.snapshot(predicate, arity)
            if snapshot.version != version:
                added = snapshot.added
                if snapshot.base != version or 2 * len(added) > len(snapshot.rows):
                    return None
                if added:
                    grown[predicate, arity] = added
        return _Delta(grown, read)

    def extend(self, budget, delta: _Delta) -> Set[Tuple]:
        return evaluate_ucq_delta(
            self.ucq, self.provider, delta.reads, delta.grown, budget=budget
        )

    def stamps(self, delta: _Delta) -> tuple:
        return _versions(delta.reads)


def _versions(read) -> tuple:
    return tuple(
        [(predicate, arity, snapshot.version) for (predicate, arity), snapshot in read.items()]
    )


class _OverTables:
    """An unfolding joined over the source tables.  Its stamps are the
    tables the join read, each with its stamps before and after the
    join (:func:`~repro.obda.sql.table.grown_tables`); the answers are
    extended by the rows appended since, unless a table gained more rows
    than the join had read, which a recompute handles better."""

    span = "sql-eval"
    phase = "sql"

    def __init__(self, unfolded, database: Database, stamped: bool):
        self.unfolded = unfolded
        #: the database the join looks tables up through (the context's
        #: retry wrapper, if any)
        self.database = database
        self.stamped = stamped

    def annotate(self, span) -> None:
        pass

    def full(self, budget) -> Tuple[Set[Tuple], Optional[tuple]]:
        started: dict = {}
        answers = self.unfolded.join(self.database, budget=budget, read=started)
        return answers, ended(started) if self.stamped else None

    def delta(self, stamps: tuple) -> Optional[_Delta]:
        grown = grown_tables(self.database, stamps)
        if grown is None or any(
            len(grown[0].get(name, ())) > end.count for name, _, _, end in stamps
        ):
            return None
        return _Delta(*grown)

    def extend(self, budget, delta: _Delta) -> Set[Tuple]:
        return self.unfolded.join(self.database, budget=budget, grown=delta.grown)

    def stamps(self, delta: _Delta) -> tuple:
        return ended(delta.reads)


class _PushedDown(_OverTables):
    """An unfolding pushed down to the SQLite replica, stamped by the
    replica tables its statements ran over and extended as the join is:
    by the backend's delta statement, each grown table bounded by the
    rows the cached answers read of it."""

    span = None  # the backend opens its own backend-exec span

    def __init__(self, backend, unfolded, database: Database, stamped: bool):
        super().__init__(unfolded, database, stamped)
        self.backend = backend

    def full(self, budget) -> Tuple[Set[Tuple], Optional[tuple]]:
        started: dict = {}
        answers = self.backend.execute_unfolded(
            self.unfolded, budget=budget, database=self.database, read=started
        )
        return answers, ended(started) if self.stamped else None

    def extend(self, budget, delta: _Delta) -> Set[Tuple]:
        # delta.reads stamps a grown table after its appended rows, so
        # the cached answers read its count less theirs
        since = {
            name: delta.reads[name][1].count - len(rows)
            for name, rows in delta.grown.items()
        }
        return self.backend.execute_unfolded(
            self.unfolded, budget=budget, database=self.database, since=since
        )


def _refresh(reader, entry: Optional[_Stamped], delta: Optional[_Delta], generation, budget):
    """*reader*'s answers and the entry to cache them under: computed in
    full without a *delta*, else *entry*'s answers extended by the
    answers that read a row *delta* added."""
    if delta is None:
        answers, stamps = reader.full(budget)
        return answers, _Stamped(generation, stamps, frozenset(answers))
    added = reader.extend(budget, delta)
    stamps = reader.stamps(delta)
    if added <= entry.answers:
        return set(entry.answers), _Stamped(generation, stamps, entry.answers)
    added |= entry.answers
    return added, _Stamped(generation, stamps, frozenset(added))


def _bound(cached, template):
    """A cached ``(rewriting, constant keys)`` entry for a query of the
    same template: the rewriting itself when the query's constants have
    those keys, else the rewriting with the query's constants bound in
    their place."""
    rewritten, keys = cached
    if keys == template.keys:
        return rewritten
    from ..perf.canonical import bind_constants

    bound = dict(zip(keys, template.constants))
    if isinstance(rewritten, UnionQuery):
        return bind_constants(rewritten, bound)
    return rewritten.with_ucq(bind_constants(rewritten.ucq, bound))


class OBDASystem:
    """An OBDA specification bound to its sources.

    Either OBDA mode (``mappings`` + ``database``) or knowledge-base mode
    (an explicit ``abox``) — exactly one of the two.

    Hot-path caching (:mod:`repro.perf`) is **on by default**:

    * classification is memoized in a process-wide cache keyed by the
      TBox's structural fingerprint, so systems sharing an ontology
      classify it once;
    * rewritings, unfoldings and certain answers are cached in bounded
      LRUs under *canonical* query keys.  A rewriting keys on the
      query's template (:func:`repro.perf.canonical.template_key`), so
      queries of the same shape — renamed variables, reordered atoms,
      fresh variable names *and constants* — share it, each with its
      own constants bound in; unfoldings and answers key on the
      template and the constants' string forms, computed once per call;
    * the extent provider is shared across queries; a write refreshes
      only the extents mapped from the tables it wrote (by a delta when
      a table only grew), and hash-join indexes are cached per
      predicate under the version of the extent they index.  Presto's
      auxiliary predicates are served by one derived-extent provider
      per TBox generation over the shared extents, from the
      classification's auxiliary rules: each is derived and indexed
      once, then grows by derived deltas (a retry context and
      ``enable_caches=False`` derive per call);
    * answers grow with appends: an answer-cache entry keeps the data
      generation it was confirmed at and the stamps of what it read
      (extent versions for perfectref and presto, table stamps for
      perfectref-sql and perfectref-sqlite).  When those inputs only
      grew since, the entry is extended by the answers that read an
      added row instead of recomputed: by the compiled join, or inside
      SQLite by a delta statement bounded by replica row positions.  The
      consistency check's negative-inclusion and unsatisfiable-predicate
      checks are kept and extended the same way.  A stamp that moved
      other than by one delta, a shrunk or replaced table, more added
      rows than were read before, a TBox change or
      :meth:`invalidate_caches` recompute in full; so do the
      functionality checks and every result in knowledge-base mode.

    All caches are validated against the TBox/data generation counters
    (or the stamps above) on every use and only ever store *completed*
    results (a budget abort propagates before the store, leaving the
    previous entry in place).  An extension counts as an answer-cache
    miss and sets the root span's ``answer_cache`` to ``extended``.
    Pass ``enable_caches=False`` to run every query through the full
    cold pipeline, or call :meth:`invalidate_caches` to drop the
    system's caches explicitly.
    """

    def __init__(
        self,
        tbox: TBox,
        mappings: Optional[MappingCollection] = None,
        database: Optional[Database] = None,
        abox: Optional[ABox] = None,
        enable_caches: bool = True,
        cache_size: int = 256,
        classification_cache=None,
        backend_path: Optional[str] = None,
    ):
        if (mappings is None) != (database is None):
            raise ReproError("mappings and database must be provided together")
        if (mappings is None) == (abox is None):
            raise ReproError("provide either mappings+database or an abox")
        self.tbox = tbox
        self.mappings = mappings
        self.database = database
        self.abox = abox
        self.enable_caches = enable_caches
        #: file of the SQLite replica method="perfectref-sqlite" pushes
        #: down to (repro.obda.sql.backends); None keeps it in memory
        self._backend_path = backend_path
        #: guards the system's own mutable state (classification slot,
        #: generation snapshot, consistency verdicts, shared-extent
        #: construction).  Never held while classifying,
        #: rewriting or evaluating — only around bookkeeping — so it
        #: cannot participate in a lock cycle (see DESIGN.md).
        self._lock = threading.RLock()
        self._classification: Optional[Classification] = None
        self._classification_generation: Optional[int] = None
        #: TBox-only consistency rewritings by kind ("violations",
        #: "functionality", "unsat"), built once per TBox generation
        self._consistency_rewritings: Dict[str, list] = {}
        self._shared_extents: Optional[ExtentProvider] = None
        #: Presto's auxiliary predicates over the shared extents, one
        #: provider per TBox generation (see _derived_extents)
        self._presto_extents: Optional[DatalogExtents] = None
        self._tbox_generation = getattr(tbox, "generation", 0)
        if enable_caches:
            from ..perf import LRUCache, shared_classification_cache

            self._classification_cache = (
                classification_cache
                if classification_cache is not None
                else shared_classification_cache()
            )
            # Rewritings depend only on the TBox and a query's template
            # (its canonical form with constants as parameters), so they
            # are keyed on that and the TBox generation; unfoldings and
            # answers also key on the constants, answers on the data too.
            self._rewriting_cache = LRUCache(cache_size, name="rewriting")
            self._unfolding_cache = LRUCache(cache_size, name="unfolding")
            self._answer_cache = LRUCache(cache_size, name="answers")
            self._consistency_cache: Dict[Tuple[int, int], List[str]] = {}
            #: per violation or unsat check, its last result and stamps
            self._check_cache: Dict[Tuple[str, str, int], _Stamped] = {}
        else:
            self._classification_cache = None
            self._rewriting_cache = None
            self._unfolding_cache = None
            self._answer_cache = None
            self._consistency_cache = None
            self._check_cache = None
        self._statistics_catalog: Optional[StatisticsCatalog] = None
        self._sql_backend = None

    # -- shared infrastructure ---------------------------------------------------

    def _data_generation(self) -> int:
        if self.database is not None:
            return self.database.generation
        return getattr(self.abox, "generation", 0)

    def _validate_caches(self) -> None:
        """Drop every TBox-derived cache when the TBox has been mutated."""
        with self._lock:
            generation = getattr(self.tbox, "generation", 0)
            if generation == self._tbox_generation:
                return
            self._tbox_generation = generation
            self._classification = None
            self._classification_generation = None
            self._consistency_rewritings = {}
            self._presto_extents = None
            if self.enable_caches:
                self._rewriting_cache.invalidate()
                self._unfolding_cache.invalidate()
                self._answer_cache.invalidate()
                self._consistency_cache = {}
                self._check_cache = {}

    def invalidate_caches(self) -> None:
        """Explicitly drop every cache held by this system.

        The shared classification cache is left alone (other systems may
        be using it); this system will simply re-key into it.  The hash
        indexes of the database's tables are dropped too, for every
        system over those tables.  Needed only after out-of-band mutation
        the generation counters cannot see (e.g. editing a mapping
        collection or table rows in place).
        """
        with self._lock:
            self._classification = None
            self._classification_generation = None
            self._consistency_rewritings = {}
            self._presto_extents = None
            if self._shared_extents is not None:
                self._shared_extents.invalidate()
            if self._statistics_catalog is not None:
                self._statistics_catalog.invalidate()
            if self.database is not None:
                for table in self.database.tables():
                    table.invalidate_indexes()
            if self._sql_backend is not None:
                self._sql_backend.invalidate()
            if self.enable_caches:
                self._rewriting_cache.invalidate()
                self._unfolding_cache.invalidate()
                self._answer_cache.invalidate()
                self._consistency_cache = {}
                self._check_cache = {}

    def cache_stats(self) -> Dict[str, Dict[str, object]]:
        """Hit/miss/eviction statistics of every cache this system uses."""
        if not self.enable_caches:
            return {}
        stats = {
            "classification": self._classification_cache.stats.to_dict(),
            "rewriting": self._rewriting_cache.stats.to_dict(),
            "unfolding": self._unfolding_cache.stats.to_dict(),
            "answers": self._answer_cache.stats.to_dict(),
        }
        provider = self._shared_extents
        if isinstance(provider, MappingExtents):
            stats["extents"] = {
                "source_pulls": provider.pulls,
                "delta_pulls": provider.delta_pulls,
            }
        with self._lock:
            backend = self._sql_backend
        if backend is not None:
            stats["backend"] = backend.stats()
        return stats

    def statistics_catalog(self) -> Optional[StatisticsCatalog]:
        """The shared per-table statistics catalog (OBDA mode only).

        No query path reads it: it serves the benchmark's traced replay
        of the cost-based planner (:mod:`repro.obda.sql.planner`)."""
        if self.database is None:
            return None
        with self._lock:
            if self._statistics_catalog is None:
                self._statistics_catalog = StatisticsCatalog(self.database)
            return self._statistics_catalog

    def sql_backend(self):
        """The shared SQLite pushdown backend (OBDA mode only), created
        lazily on first pushed-down query."""
        if self.database is None:
            return None
        with self._lock:
            if self._sql_backend is None:
                from .sql.backends import SqliteBackend

                self._sql_backend = SqliteBackend(
                    self.database, path=self._backend_path
                )
            return self._sql_backend

    @property
    def classification(self) -> Classification:
        # Check-then-act made safe: compute outside the lock (the shared
        # cache runs single-flight, so concurrent first-touch classifies
        # once), then install only if the TBox generation we computed for
        # is still current — a concurrent axiom add restarts the loop
        # instead of letting a stale classification overwrite a fresh
        # invalidation.
        while True:
            self._validate_caches()
            with self._lock:
                generation = self._tbox_generation
                if self._classification is not None:
                    return self._classification
            computed = self._classify_now()
            with self._lock:
                if getattr(self.tbox, "generation", 0) == generation:
                    if self._tbox_generation == generation:
                        self._classification = computed
                        self._classification_generation = generation
                    return computed

    def _classify_now(self) -> Classification:
        tracer = current_tracer()
        with tracer.span("classify") as span:
            if self._classification_cache is not None:
                stats = self._classification_cache.stats
                hits_before = stats.hits
                computed = self._classification_cache.classify(self.tbox)
                span.set("cache", "hit" if stats.hits > hits_before else "miss")
            else:
                span.set("cache", "off")
                computed = GraphClassifier().classify(self.tbox)
            if tracer.enabled:
                span.set("axioms", len(self.tbox))
                span.set("subsumptions", computed.subsumption_count())
        return computed

    def extents(
        self, context: Optional[ExecutionContext] = None
    ) -> ExtentProvider:
        """The extent provider, wrapped in the context's retry policy (if any).

        With caches enabled the underlying provider is shared across
        queries (its extent/index caches persist; a write refreshes the
        extents mapped from the tables it wrote); only the stateless
        retry wrapper is per-context, and it delegates to the shared
        provider's caches.
        """
        if self.enable_caches:
            with self._lock:  # exactly one shared provider, ever
                if self._shared_extents is None:
                    if self.abox is not None:
                        self._shared_extents = ABoxExtents(self.abox)
                    else:
                        self._shared_extents = MappingExtents(
                            self.mappings, self.database
                        )
                provider: ExtentProvider = self._shared_extents
        elif self.abox is not None:
            provider = ABoxExtents(self.abox)
        else:
            provider = MappingExtents(self.mappings, self.database)
        if context is not None:
            provider = context.wrap_extents(provider)
        return provider

    def _as_ucq(self, query: Union[str, UnionQuery, ConjunctiveQuery]) -> UnionQuery:
        if isinstance(query, str):
            return parse_query(query)
        if isinstance(query, ConjunctiveQuery):
            return UnionQuery([query], name=query.name)
        return query

    # -- query answering -----------------------------------------------------------

    def rewrite(self, query, method: str = "perfectref", budget=None):
        """Rewrite only (no evaluation); returns a UCQ or DatalogRewriting.

        Rewritings depend only on the TBox, not on the data, so they are
        cached across queries under the TBox generation and the query's
        *template* (:func:`repro.perf.canonical.template_key`): its
        canonical form with constants as parameters.  Queries of one
        shape — renamed variables, reordered atoms or disjuncts, other
        constants — share one entry; a query with other constants gets
        the cached rewriting with its own constants bound in
        (:func:`~repro.perf.canonical.bind_constants`), a query with the
        cached ones the cached object.  PerfectRef outputs additionally
        get subsumption-pruned (:func:`repro.perf.prune.prune_ucq`)
        before caching, shrinking the join work and the rendered SQL;
        the ``rewrite`` span records the before/after disjunct counts.

        Only *completed* rewritings enter the cache, so a budget abort
        never poisons it.
        """
        if method not in (
            "perfectref",
            "perfectref-sql",
            "perfectref-sqlite",
            "presto",
        ):
            raise ReproError(f"unknown rewriting method {method!r}")
        return self._rewrite(self._as_ucq(query), method, budget, None)

    def _rewrite(self, ucq: UnionQuery, method: str, budget, template):
        """:meth:`rewrite` of a parsed query whose template the caller
        may have computed already (None: computed here when cached)."""
        budget = Budget.ensure(budget, task=f"rewrite:{ucq.name or method}")
        group = "presto" if method == "presto" else "perfectref"
        tracer = current_tracer()
        with tracer.span("rewrite") as span:
            span.annotate(method=group, disjuncts_in=len(ucq))
            key = None
            if self.enable_caches:
                self._validate_caches()
                if template is None:
                    from ..perf.canonical import template_key

                    template = template_key(ucq)
                # Keyed on the TBox generation read before rewriting, as
                # the answers are: a rewriting of the TBox from before a
                # concurrent axiom add is never served after it.
                key = (template.shape, group, self._tbox_generation)
                cached = self._rewriting_cache.get(key)
                if cached is not None:
                    span.set("cache", "hit")
                    return _bound(cached, template)
                span.set("cache", "miss")
            else:
                span.set("cache", "off")
            if group == "presto":
                rewritten: object = presto_rewrite(
                    ucq, self.tbox, self.classification, budget=budget
                )
                span.set("datalog_size", rewritten.size)
            elif self.enable_caches:
                from ..perf import prune_ucq

                raw = perfect_ref(ucq, self.tbox, minimize=False, budget=budget)
                pruned = prune_ucq(raw)
                rewritten = pruned.ucq
                span.annotate(
                    disjuncts_before_pruning=pruned.before,
                    disjuncts_after_pruning=pruned.after,
                )
            else:
                rewritten = perfect_ref(ucq, self.tbox, budget=budget)
                span.set("disjuncts_out", len(rewritten))
            if key is not None:
                self._rewriting_cache.put(key, (rewritten, template.keys))
            return rewritten

    def certain_answers(
        self,
        query,
        method: str = "perfectref",
        check_consistency: bool = True,
        budget=None,
        retry=None,
    ) -> Set[Tuple]:
        """The certain answers of *query* over the OBDA specification.

        Raises :class:`InconsistentOntology` when the KB is inconsistent
        (every tuple would be a certain answer) unless checking is off.

        Resilience knobs:

        * *budget* — seconds, a :class:`~repro.runtime.budget.Budget` or
          ``None``; one allowance shared by consistency checking,
          rewriting, unfolding and evaluation.  Exhaustion raises a
          :class:`~repro.errors.TimeoutExceeded` naming the phase and
          query that overran.
        * *retry* — a :class:`~repro.runtime.retry.RetryPolicy` applied
          to every source access (virtual extents or SQL tables), so
          transient source failures are retried with backoff and only an
          exhausted policy surfaces (as a typed
          :class:`~repro.errors.PermanentSourceError`).
        """
        if method not in (
            "perfectref",
            "perfectref-sql",
            "perfectref-sqlite",
            "presto",
        ):
            raise ReproError(f"unknown query answering method {method!r}")
        ucq = self._as_ucq(query)
        label = ucq.name or "query"
        context = ExecutionContext.create(
            budget, retry, task=f"certain-answers:{label}"
        )
        tracer = current_tracer()
        with tracer.span("certain-answers") as root:
            root.annotate(query=label, method=method)
            if context.budget is not None and context.budget.remaining_s is not None:
                root.set("budget_entry_s", round(context.budget.remaining_s, 6))
            try:
                answers = self._certain_answers_traced(
                    ucq, label, method, check_consistency, context, tracer, root
                )
            finally:
                if (
                    context.budget is not None
                    and context.budget.remaining_s is not None
                ):
                    root.set("budget_exit_s", round(context.budget.remaining_s, 6))
            root.set("answers", len(answers))
            return answers

    def _certain_answers_traced(
        self, ucq, label, method, check_consistency, context, tracer, root
    ) -> Set[Tuple]:
        if check_consistency and not self.is_consistent(context=context):
            raise InconsistentOntology(
                "the mapped sources violate the TBox; every tuple is entailed"
            )
        context.check()
        key = entry = generation = template = None
        if self.enable_caches:
            from ..perf.canonical import template_key

            self._validate_caches()
            # The data generation is read before anything the answers
            # are computed from, so a write after this read moves it.
            generation = self._data_generation()
            # the template and the constants' string forms tell queries
            # apart as ucq_key does; the rewriting keys on the template
            template = template_key(ucq)
            key = (template.shape, template.keys, method, self._tbox_generation)
            entry = self._answer_cache.get(key, record=False)
            if entry is not None and entry.generation == generation:
                return self._answer_hit(key, entry, entry, root)
        else:
            root.set("answer_cache", "off")
        reader = self._answer_reader(ucq, label, method, context, tracer, key, template)
        delta = None
        if entry is not None and entry.stamps is not None:
            delta = reader.delta(entry.stamps)
            if delta is not None and not delta.grown:
                current = _Stamped(generation, reader.stamps(delta), entry.answers)
                return self._answer_hit(key, entry, current, root)
        if key is not None:
            self._answer_cache.stats.record_miss()
            root.set("answer_cache", "miss" if delta is None else "extended")
        budget = context.scoped(f"{reader.phase}:{label}")
        if reader.span is None:
            answers, fresh = _refresh(reader, entry, delta, generation, budget)
        else:
            with tracer.span(reader.span) as span:
                reader.annotate(span)
                answers, fresh = _refresh(reader, entry, delta, generation, budget)
                span.set("answers", len(answers))
        if key is not None:
            # only over the entry this work started from: a concurrent
            # call may have installed a newer one since
            self._answer_cache.replace(key, entry, fresh)
        return answers

    def _answer_hit(self, key, entry: _Stamped, current: _Stamped, root) -> Set[Tuple]:
        """*entry*'s answers served without evaluation; *current* is the
        entry confirmed at the current data generation."""
        if current is not entry:
            self._answer_cache.replace(key, entry, current)
        self._answer_cache.stats.record_hit()
        root.set("answer_cache", "hit")
        return set(entry.answers)

    def _answer_reader(self, ucq, label, method, context, tracer, key, template):
        """What answers *ucq* by *method*: its rewriting (and unfolding)
        from the caches, over the sources it reads."""
        stamped = self.enable_caches and self.abox is None
        budget = context.scoped(f"rewrite:{label}")
        if method == "perfectref":
            rewritten = self._rewrite(ucq, method, budget, template)
            return _OverExtents(rewritten, self.extents(context), stamped)
        if method in ("perfectref-sql", "perfectref-sqlite"):
            if self.mappings is None:
                raise ReproError(f"{method} requires mappings and a database")
            rewritten = self._rewrite(ucq, method, budget, template)
            with tracer.span("unfold") as span:
                unfolded = None
                if key is not None:
                    # the rewriting unfolded here is of this TBox
                    # generation or a later one, never an earlier one
                    unfold_key = (key[0], key[1], key[3])
                    unfolded = self._unfolding_cache.get(unfold_key)
                if unfolded is None:
                    span.set("cache", "miss" if key is not None else "off")
                    unfolded = unfold(
                        rewritten,
                        self.mappings,
                        budget=context.scoped(f"unfold:{label}"),
                    )
                    if key is not None:
                        self._unfolding_cache.put(unfold_key, unfolded)
                else:
                    span.set("cache", "hit")
                span.set("sql_parts", unfolded.size)
            database = context.wrap_database(self.database)
            if method == "perfectref-sqlite":
                return _PushedDown(self.sql_backend(), unfolded, database, stamped)
            return _OverTables(unfolded, database, stamped)
        rewriting = self._rewrite(ucq, method, budget, template)
        if key is not None and context.retry is None and rewriting.auxiliary is not None:
            provider = self._derived_extents(rewriting.auxiliary)
        else:
            provider = DatalogExtents(rewriting, self.extents(context))
        return _OverExtents(rewriting.ucq, provider, stamped)

    def _derived_extents(self, auxiliary) -> DatalogExtents:
        """The system's provider of Presto's auxiliary predicates over
        its shared extents, from *auxiliary*, the
        :class:`~repro.obda.rewriting.presto.AuxiliaryRules` of the
        classification the query was rewritten against.  It serves every
        such query: each auxiliary predicate is derived and indexed
        once, then grows by derived deltas and revalidates against the
        base generation itself.  A rewriting of another classification
        (a TBox change, possibly racing this call) replaces it."""
        with self._lock:
            provider = self._presto_extents
            if (
                provider is None
                or provider.rewriting.classification is not auxiliary.classification
            ):
                provider = DatalogExtents(auxiliary, self.extents())
                self._presto_extents = provider
            return provider

    def certain_answers_eql(self, query, check_consistency: bool = True):
        """Answer an EQL-Lite query (epistemic FO shell over K-atoms).

        Each embedded UCQ is answered under certain-answer semantics via
        PerfectRef; the boolean/existential shell is evaluated over the
        resulting relations (see :mod:`repro.obda.eql`).
        """
        from .eql import EqlQuery, evaluate_eql

        if not isinstance(query, EqlQuery):
            raise ReproError("certain_answers_eql expects an EqlQuery")
        if check_consistency and not self.is_consistent():
            raise InconsistentOntology(
                "the mapped sources violate the TBox; every tuple is entailed"
            )
        return evaluate_eql(query, self.tbox, self.extents())

    # -- resilient execution ---------------------------------------------------

    def execution_context(self, budget=None, retry=None) -> ExecutionContext:
        """Build an :class:`~repro.runtime.execution.ExecutionContext`.

        Convenience for callers issuing several queries under one shared
        allowance/policy::

            context = system.execution_context(budget=30.0, retry=policy)
            for query in workload:
                system.certain_answers(query, budget=context.budget,
                                       retry=context.retry)
        """
        return ExecutionContext.create(budget, retry, task="obda")

    # -- instance-level services ---------------------------------------------------------

    def instances_of(self, concept_text: str, method: str = "perfectref") -> Set[Tuple]:
        """Retrieve all (certain) instances of a basic concept expression.

        *concept_text* uses the textual syntax, e.g. ``"Teacher"`` or
        ``"exists teaches . Course"``.
        """
        from ..dllite.parser import parse_concept
        from ..dllite.syntax import QualifiedExistential

        expression = parse_concept(concept_text)
        if isinstance(expression, QualifiedExistential):
            atoms = _membership_atoms(ExistentialRole(expression.role), _X, "w")
            # refine: the witness must belong to the filler
            role_atom = atoms[0]
            witness = (
                role_atom.args[0] if role_atom.args[1] == _X else role_atom.args[1]
            )
            atoms.append(Atom(expression.filler.name, (witness,)))
        else:
            atoms = _membership_atoms(expression, _X, "w")
        query = UnionQuery([ConjunctiveQuery((_X,), atoms, "instances")])
        return self.certain_answers(query, method=method)

    def instance_check(self, concept_text: str, individual_name: str) -> bool:
        """``(T, sources) ⊨ C(a)`` — instance checking via retrieval."""
        from ..dllite.abox import Individual

        return any(
            answer[0] == Individual(individual_name)
            for answer in self.instances_of(concept_text)
        )

    def analyze_mappings(self):
        """Static lint of the mapping collection (see mapping_analysis)."""
        from .mapping_analysis import analyze_mappings

        if self.mappings is None or self.database is None:
            raise ReproError("mapping analysis needs mappings and a database")
        return analyze_mappings(self.mappings, self.database, self.tbox)

    # -- consistency -------------------------------------------------------------------

    def violation_queries(self) -> List[Tuple[str, UnionQuery]]:
        """One boolean query per negative inclusion of the TBox."""
        queries: List[Tuple[str, UnionQuery]] = []
        for axiom in self.tbox.negative_inclusions:
            if isinstance(axiom, ConceptInclusion):
                atoms = _membership_atoms(axiom.lhs, _X, "w1") + _membership_atoms(
                    axiom.rhs.concept, _X, "w2"
                )
            elif isinstance(axiom, RoleInclusion):
                atoms = [
                    _role_atom(axiom.lhs, _X, _Y),
                    _role_atom(axiom.rhs.role, _X, _Y),
                ]
            elif isinstance(axiom, AttributeInclusion):
                atoms = [
                    Atom(axiom.lhs.name, (_X, _Y)),
                    Atom(axiom.rhs.attribute.name, (_X, _Y)),
                ]
            else:  # pragma: no cover - defensive
                continue
            cq = ConjunctiveQuery((), atoms, name="violation")
            queries.append((str(axiom), UnionQuery([cq], name="violation")))
        return queries

    def functionality_violations(
        self, context: Optional[ExecutionContext] = None
    ) -> List[str]:
        """Functionality assertions violated by the (virtual) data.

        Polls the context's budget per assertion (and inside each
        rewriting/evaluation), so consistency checking is bounded too.
        """
        budget = context.scoped("consistency:functionality") if context else None
        rewritings = self._consistency_checks(
            "functionality", lambda: self._functionality_rewritings(budget)
        )
        violated: List[str] = []
        extents = self.extents(context)
        for label, ucq, inverse in rewritings:
            if budget is not None:
                budget.check()
            pairs = evaluate_ucq(ucq, extents, budget=budget)
            if inverse:
                pairs = {(b, a) for a, b in pairs}
            subjects = [subject for subject, _ in pairs]
            if len(subjects) != len(set(subjects)):
                violated.append(label)
        return violated

    def _consistency_checks(self, kind: str, build) -> list:
        """The TBox-only rewritings of one kind of consistency check,
        built by *build* once per TBox generation.

        The first completed build wins; a racing duplicate build is
        discarded (both are derived from the same TBox snapshot), and a
        build a TBox change overtook is used once but not kept.
        """
        self._validate_caches()
        with self._lock:
            generation = self._tbox_generation
            rewritings = self._consistency_rewritings.get(kind)
        if rewritings is not None:
            return rewritings
        rewritings = build()
        with self._lock:
            if self._tbox_generation == generation:
                return self._consistency_rewritings.setdefault(kind, rewritings)
        return rewritings

    def _violation_rewritings(self, budget) -> List[Tuple[str, UnionQuery]]:
        rewritings = []
        for label, ucq in self.violation_queries():
            if budget is not None:
                budget.check()
            rewritings.append((label, perfect_ref(ucq, self.tbox, budget=budget)))
        return rewritings

    def _functionality_rewritings(self, budget) -> List[Tuple[str, UnionQuery, bool]]:
        """``(axiom, rewritten extent query, inverse?)`` per functionality
        assertion."""
        rewritings = []
        for axiom in self.tbox.functionality_assertions:
            if budget is not None:
                budget.check()
            if isinstance(axiom, FunctionalRole):
                role = axiom.role
                name = role.name if isinstance(role, AtomicRole) else role.role.name
                inverse = isinstance(role, InverseRole)
            elif isinstance(axiom, FunctionalAttribute):
                name, inverse = axiom.attribute.name, False
            else:  # pragma: no cover - defensive
                continue
            ucq = perfect_ref(
                UnionQuery([ConjunctiveQuery((_X, _Y), [Atom(name, (_X, _Y))])], "ext"),
                self.tbox,
                budget=budget,
            )
            rewritings.append((str(axiom), ucq, inverse))
        return rewritings

    def _unsat_rewritings(self, budget) -> List[Tuple[str, UnionQuery]]:
        """The rewritten extent query of every unsatisfiable predicate."""
        rewritings = []
        for node in self.classification.unsatisfiable():
            if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute)):
                if budget is not None:
                    budget.check()
                arity = 1 if isinstance(node, AtomicConcept) else 2
                variables = (_X,) if arity == 1 else (_X, _Y)
                ucq = perfect_ref(
                    UnionQuery(
                        [ConjunctiveQuery(variables, [Atom(node.name, variables)])],
                        "unsat",
                    ),
                    self.tbox,
                    budget=budget,
                )
                rewritings.append((str(node), ucq))
        return rewritings

    def inconsistency_witnesses(
        self, context: Optional[ExecutionContext] = None
    ) -> List[str]:
        """Human-readable reasons the KB is inconsistent (empty = consistent).

        Every loop polls the context's budget (violation queries are
        rewritten and evaluated under it), and extent access goes through
        the context's retry policy — consistency checking was previously
        the largest unbounded region of the pipeline.
        """
        self._validate_caches()
        tracer = current_tracer()
        with tracer.span("consistency") as span:
            verdict_key = None
            if self.enable_caches:
                with self._lock:
                    verdict_key = (self._tbox_generation, self._data_generation())
                    cached = self._consistency_cache.get(verdict_key)
                if cached is not None:
                    span.set("cache", "hit")
                    span.set("witnesses", len(cached))
                    return list(cached)
                span.set("cache", "miss")
            else:
                span.set("cache", "off")
            witnesses = self._inconsistency_witnesses_uncached(
                context, verdict_key, span
            )
            span.set("witnesses", len(witnesses))
            return witnesses

    def _inconsistency_witnesses_uncached(
        self, context: Optional[ExecutionContext], verdict_key, span
    ) -> List[str]:
        budget = context.scoped("consistency:check") if context else None
        witnesses: List[str] = []
        extents = self.extents(context)
        outcomes: List[str] = []
        for label, rewritten in self._consistency_checks(
            "violations", lambda: self._violation_rewritings(budget)
        ):
            if budget is not None:
                budget.check()
            if self._populated(
                "violations", label, rewritten, extents, budget, verdict_key, outcomes
            ):
                witnesses.append(f"negative inclusion violated: {label}")
        witnesses.extend(
            f"functionality violated: {label}"
            for label in self.functionality_violations(context)
        )
        # Unsatisfiable predicates with a non-empty extent also break the KB.
        for label, rewritten in self._consistency_checks(
            "unsat", lambda: self._unsat_rewritings(budget)
        ):
            if budget is not None:
                budget.check()
            if self._populated(
                "unsat", label, rewritten, extents, budget, verdict_key, outcomes
            ):
                witnesses.append(f"unsatisfiable predicate populated: {label}")
        if verdict_key is not None:
            span.annotate(
                checks_extended=outcomes.count("extended"),
                checks_recomputed=outcomes.count("miss"),
            )
            # completed check only — a budget abort raised before this line
            with self._lock:
                self._consistency_cache[verdict_key] = list(witnesses)
                if len(self._consistency_cache) > 64:
                    self._consistency_cache.pop(next(iter(self._consistency_cache)))
        return witnesses

    def _populated(
        self, kind, label, ucq, extents, budget, verdict_key, outcomes
    ) -> bool:
        """Whether the rewritten check *ucq* has an answer.  With caches
        on, each check keeps its last result and stamps and is extended
        like an answer-cache entry; a populated check stays populated
        while everything it read only grew, so it is confirmed without a
        join.  Appends ``"hit"``, ``"extended"`` or ``"miss"`` to
        *outcomes*."""
        if verdict_key is None:
            return bool(evaluate_ucq(ucq, extents, budget=budget))
        tbox_generation, generation = verdict_key
        key = (kind, label, tbox_generation)
        with self._lock:
            entry = self._check_cache.get(key)
        reader = _OverExtents(ucq, extents, self.abox is None)
        delta = None
        if entry is not None:
            if entry.generation == generation:
                outcomes.append("hit")
                return bool(entry.answers)
            if entry.stamps is not None:
                delta = reader.delta(entry.stamps)
        if delta is not None and (entry.answers or not delta.grown):
            outcomes.append("hit")
            fresh = _Stamped(generation, reader.stamps(delta), entry.answers)
        else:
            outcomes.append("miss" if delta is None else "extended")
            _, fresh = _refresh(reader, entry, delta, generation, budget)
        with self._lock:
            # only over the entry this work started from, and never
            # after a TBox change dropped the checks of this generation
            if (
                self._tbox_generation == tbox_generation
                and self._check_cache.get(key) is entry
            ):
                self._check_cache[key] = fresh
        return bool(fresh.answers)

    def is_consistent(self, context: Optional[ExecutionContext] = None) -> bool:
        return not self.inconsistency_witnesses(context)
