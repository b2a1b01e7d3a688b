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
memberships count), every functionality assertion is checked on the
rewritten extent of its role/attribute, and every unsatisfiable
predicate must have an empty rewritten extent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

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
)
from .mapping import MappingCollection
from .queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from .rewriting.perfectref import perfect_ref
from .rewriting.presto import presto_rewrite
from .rewriting.unfolding import unfold
from .sql.database import Database
from .sql.stats import StatisticsCatalog
from .sql.table import Stamped, refresh

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


def _extent_query(name: str, arity: int) -> UnionQuery:
    """``q(x[, y]) :- name(x[, y])``: the extent of a predicate."""
    variables = (_X,) if arity == 1 else (_X, _Y)
    return UnionQuery([ConjunctiveQuery(variables, [Atom(name, variables)])], "ext")


#: the kinds of consistency check, as their witnesses begin
_VIOLATION = "negative inclusion violated"
_FUNCTIONALITY = "functionality violated"
_UNSAT = "unsatisfiable predicate populated"


@dataclass
class _Check:
    """One consistency check of a TBox generation: its kind and label
    (together its witness), its PerfectRef-rewritten query and, with
    caches on, its last result."""

    kind: str
    label: str
    ucq: UnionQuery
    #: for a functionality assertion, the position of a pair's subject
    #: (1 when its pairs are read inverted); None when any answer
    #: violates the check
    subject: Optional[int]
    #: the last result: its answers and whether they violate the check
    result: Optional[Stamped] = None

    def violated(self, answers: Set[Tuple]) -> bool:
        """Whether *answers*, the query's distinct answers, violate it."""
        if self.subject is None:
            return bool(answers)
        return len({pair[self.subject] for pair in answers}) != len(answers)


class _OverExtents:
    """A UCQ over the tables of an extent provider, by predicate and
    arity.  Each reader supplies what :func:`~repro.obda.sql.table.refresh`
    calls: the lookup of a table by key, the full run, which adds each
    table it reads to *started*, and the extension by *grown*."""

    span = "evaluate"
    phase = "evaluate"

    def __init__(self, ucq: UnionQuery, provider: ExtentProvider):
        self.ucq = ucq
        self.provider = provider

    def annotate(self, span) -> None:
        span.set("disjuncts", len(self.ucq))

    def lookup(self, key: Tuple[str, int]):
        return self.provider.table(*key)

    def full(self, budget, started: dict) -> Set[Tuple]:
        return evaluate_ucq(self.ucq, self.provider, budget, started)

    def extend(self, budget, grown: dict, started: dict) -> Set[Tuple]:
        return evaluate_ucq(self.ucq, self.provider, budget, started, grown)


class _OverTables:
    """An unfolding joined over the source tables, read by name."""

    span = "sql-eval"
    phase = "sql"

    def __init__(self, unfolded, database: Database, constants: Optional[tuple]):
        self.unfolded = unfolded
        #: the database the join looks tables up through (the context's
        #: retry wrapper, if any)
        self.database = database
        #: the call's constants, bound into a parameterized unfolding
        self.constants = constants

    def annotate(self, span) -> None:
        pass

    def lookup(self, name: str):
        return self.database.table(name)

    def full(self, budget, started: dict) -> Set[Tuple]:
        return self.unfolded.join(
            self.database, budget=budget, read=started, constants=self.constants
        )

    def extend(self, budget, grown: dict, started: dict) -> Set[Tuple]:
        return self.unfolded.join(
            self.database, budget=budget, grown=grown, constants=self.constants
        )


class _PushedDown(_OverTables):
    """An unfolding pushed down to the SQLite replica, read through the
    replica tables its statements ran over and extended as the join is:
    by the backend's delta statement, each grown table bounded by the
    rows the cached answers read of it."""

    span = None  # the backend opens its own backend-exec span

    def __init__(self, backend, unfolded, database: Database, constants):
        super().__init__(unfolded, database, constants)
        self.backend = backend

    def full(self, budget, started: dict) -> Set[Tuple]:
        return self.backend.execute_unfolded(
            self.unfolded,
            budget=budget,
            database=self.database,
            read=started,
            constants=self.constants,
        )

    def extend(self, budget, grown: dict, started: dict) -> Set[Tuple]:
        # started stamps a grown table after its appended rows, so the
        # cached answers read its count less theirs
        since = {name: started[name][1].count - len(rows) for name, rows in grown.items()}
        return self.backend.execute_unfolded(
            self.unfolded,
            budget=budget,
            database=self.database,
            since=since,
            constants=self.constants,
        )


def _united(answers: FrozenSet[Tuple], added: Set[Tuple]) -> FrozenSet[Tuple]:
    """*answers* with the answers an extension *added*: *answers* itself
    when the extension found none new."""
    return answers if added <= answers else answers | added


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
      own constants bound in.  An unfolding for the SQL methods keys on
      the template alone: its constants are parameters, which each call
      binds (so a hit skips the rewriting too); answers key on the
      template and the constants' string forms, computed once per call;
    * the extent provider is shared across queries and serves each
      extent as an append-only table; a write refreshes only the
      extents mapped from the tables it wrote (in place by a delta when
      a table only grew), and each extent's hash-join indexes live on
      its table, extended by the rows it appended.  Presto's
      auxiliary predicates are served by one derived-extent provider
      per TBox generation over the shared extents, from the
      classification's auxiliary rules: each is derived and indexed
      once, then grows by derived deltas (a retry context wraps it in
      its policy; ``enable_caches=False`` derives per call);
    * answers grow with appends: an answer-cache entry keeps the data
      generation it was confirmed at and the table stamps of what it
      read (the extents' tables for perfectref and presto, the source
      tables for perfectref-sql and perfectref-sqlite).  When those
      inputs only grew since, by any number of appends, the entry is
      extended by the answers that read an added row instead of
      recomputed: by the compiled join, or inside SQLite by a delta
      statement bounded by replica row positions.  Every consistency
      check (negative inclusion, functionality assertion, unsatisfiable
      predicate) is kept and extended the same way, and the extents
      too: one routine, :func:`~repro.obda.sql.table.refresh`, decides
      for all of them.  A shrunk or
      replaced table or extent, more added rows than were read before,
      a TBox change or :meth:`invalidate_caches` recompute in full; an
      ABox write replaces every extent's table in knowledge-base mode,
      so there every write recomputes.

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
        #: the consistency checks, built once per TBox generation
        self._checks: Optional[List[_Check]] = None
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
            # are keyed on that and the TBox generation, as unfoldings
            # are (unfolded with those parameters); answers also key on
            # the constants, and on the data.
            self._rewriting_cache = LRUCache(cache_size, name="rewriting")
            self._unfolding_cache = LRUCache(cache_size, name="unfolding")
            self._answer_cache = LRUCache(cache_size, name="answers")
            self._consistency_cache: Dict[Tuple[int, int], List[str]] = {}
        else:
            self._classification_cache = None
            self._rewriting_cache = None
            self._unfolding_cache = None
            self._answer_cache = None
            self._consistency_cache = None
        self._statistics_catalog: Optional[StatisticsCatalog] = None
        self._sql_backend = None

    # -- shared infrastructure ---------------------------------------------------

    def _data_generation(self) -> int:
        if self.database is not None:
            return self.database.generation
        return getattr(self.abox, "generation", 0)

    def _drop_tbox_state(self) -> None:
        """Drop everything derived from the TBox: the classification,
        the consistency checks, Presto's derived extents and the caches
        keyed by the TBox generation."""
        with self._lock:
            self._classification = None
            self._checks = None
            self._presto_extents = None
            if self.enable_caches:
                self._rewriting_cache.invalidate()
                self._unfolding_cache.invalidate()
                self._answer_cache.invalidate()
                self._consistency_cache = {}

    def _validate_caches(self) -> None:
        """Drop every TBox-derived cache when the TBox has been mutated."""
        with self._lock:
            generation = getattr(self.tbox, "generation", 0)
            if generation != self._tbox_generation:
                self._tbox_generation = generation
                self._drop_tbox_state()

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
            self._drop_tbox_state()
            if self._shared_extents is not None:
                self._shared_extents.invalidate()
            if self._statistics_catalog is not None:
                self._statistics_catalog.invalidate()
            if self.database is not None:
                for table in self.database.tables():
                    table.invalidate_indexes()
            if self._sql_backend is not None:
                self._sql_backend.invalidate()

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
        cached ones the cached object.  PerfectRef outputs, with caches on
        or off, are subsumption-pruned (:func:`repro.perf.prune.prune_ucq`)
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
            else:
                from ..perf import prune_ucq

                raw = perfect_ref(ucq, self.tbox, minimize=False, budget=budget)
                pruned = prune_ucq(raw)
                rewritten = pruned.ucq
                span.annotate(
                    disjuncts_before_pruning=pruned.before,
                    disjuncts_after_pruning=pruned.after,
                )
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
        budget = context.scoped(f"{reader.phase}:{label}")

        def run(outcome: str, work) -> FrozenSet[Tuple]:
            # an extension counts as a miss, recorded before the work
            if key is not None:
                self._answer_cache.stats.record_miss()
                root.set("answer_cache", outcome)
            if reader.span is None:
                return work()
            with tracer.span(reader.span) as span:
                reader.annotate(span)
                answers = work()
                span.set("answers", len(answers))
            return answers

        def full(started) -> FrozenSet[Tuple]:
            return run("miss", lambda: frozenset(reader.full(budget, started)))

        def extend(answers, grown, started) -> FrozenSet[Tuple]:
            return run("extended", lambda: _united(answers, reader.extend(budget, grown, started)))

        fresh, outcome = refresh(entry, generation, reader.lookup, full, extend)
        if outcome == "hit":
            return self._answer_hit(key, entry, fresh, root)
        if key is not None:
            # only over the entry this work started from: a concurrent
            # call may have installed a newer one since
            self._answer_cache.replace(key, entry, fresh)
        return set(fresh.value)

    def _answer_hit(self, key, entry: Stamped, current: Stamped, root) -> Set[Tuple]:
        """*entry*'s answers served without evaluation; *current* is the
        entry confirmed at the current data generation."""
        if current is not entry:
            self._answer_cache.replace(key, entry, current)
        self._answer_cache.stats.record_hit()
        root.set("answer_cache", "hit")
        return set(entry.value)

    def _answer_reader(self, ucq, label, method, context, tracer, key, template):
        """What answers *ucq* by *method*: its rewriting (and unfolding)
        from the caches, over the sources it reads."""
        budget = context.scoped(f"rewrite:{label}")
        if method == "perfectref":
            rewritten = self._rewrite(ucq, method, budget, template)
            return _OverExtents(rewritten, self.extents(context))
        if method in ("perfectref-sql", "perfectref-sqlite"):
            if self.mappings is None:
                raise ReproError(f"{method} requires mappings and a database")
            unfolded = None
            if key is not None:
                # One unfolding per template: its constants are parameters
                # that each call binds, so a hit needs no rewriting.  The
                # rewriting unfolded on a miss is of this TBox generation
                # or a later one, never an earlier one.
                unfold_key = (key[0], key[3])
                unfolded = self._unfolding_cache.get(unfold_key)
            if unfolded is None:
                rewritten = self._rewrite(ucq, method, budget, template)
            with tracer.span("unfold") as span:
                if unfolded is None:
                    span.set("cache", "miss" if key is not None else "off")
                    unfolded = unfold(
                        rewritten,
                        self.mappings,
                        budget=context.scoped(f"unfold:{label}"),
                        parameters=None if key is None else template.keys,
                    )
                    if key is not None:
                        self._unfolding_cache.put(unfold_key, unfolded)
                else:
                    span.set("cache", "hit")
                span.annotate(sql_parts=unfolded.size, parameters=unfolded.parameters)
            database = context.wrap_database(self.database)
            constants = template.keys if unfolded.parameters else None
            if method == "perfectref-sqlite":
                return _PushedDown(self.sql_backend(), unfolded, database, constants)
            return _OverTables(unfolded, database, constants)
        rewriting = self._rewrite(ucq, method, budget, template)
        if key is None:
            provider = DatalogExtents(rewriting.auxiliary, self.extents(context))
        else:
            provider = context.wrap_extents(self._derived_extents(rewriting.auxiliary))
        return _OverExtents(rewriting.ucq, provider)

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
        return [
            check.label
            for check in self._violated_checks(
                context, "consistency:functionality", self._verdict_key(), [], _FUNCTIONALITY
            )
        ]

    def inconsistency_witnesses(
        self, context: Optional[ExecutionContext] = None
    ) -> List[str]:
        """Human-readable reasons the KB is inconsistent (empty = consistent).

        Every loop polls the context's budget (violation queries are
        rewritten and evaluated under it), and extent access goes through
        the context's retry policy — consistency checking was previously
        the largest unbounded region of the pipeline.
        """
        tracer = current_tracer()
        with tracer.span("consistency") as span:
            verdict_key = self._verdict_key()
            if verdict_key is not None:
                with self._lock:
                    cached = self._consistency_cache.get(verdict_key)
                if cached is not None:
                    span.set("cache", "hit")
                    span.set("witnesses", len(cached))
                    return list(cached)
                span.set("cache", "miss")
            else:
                span.set("cache", "off")
            outcomes: List[str] = []
            witnesses = [
                f"{check.kind}: {check.label}"
                for check in self._violated_checks(
                    context, "consistency:check", verdict_key, outcomes
                )
            ]
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
            span.set("witnesses", len(witnesses))
            return witnesses

    def _verdict_key(self) -> Optional[Tuple[int, int]]:
        """The TBox and data generations a consistency verdict is computed
        for, read before anything it reads (None with caches off)."""
        if not self.enable_caches:
            return None
        self._validate_caches()
        with self._lock:
            return self._tbox_generation, self._data_generation()

    def _violated_checks(
        self, context, task: str, verdict_key, outcomes: List[str], kind=None
    ) -> List[_Check]:
        """The consistency checks (of *kind*, or all) the data violates,
        in witness order."""
        budget = context.scoped(task) if context else None
        extents = self.extents(context)
        return [
            check
            for check in self._check_list(budget)
            if (kind is None or check.kind == kind)
            and self._violated(check, extents, budget, verdict_key, outcomes)
        ]

    def _check_list(self, budget) -> List[_Check]:
        """Every consistency check of the TBox, in witness order, each
        PerfectRef-rewritten once per TBox generation: the violation query
        of each negative inclusion, then the extent query of each
        functionality assertion and of each unsatisfiable predicate (by
        arity, then name).

        The first completed build wins; a racing duplicate build is
        discarded (both are derived from the same TBox snapshot), and a
        build a TBox change overtook is used once but not kept.
        """
        self._validate_caches()
        with self._lock:
            generation = self._tbox_generation
            checks = self._checks
        if checks is not None:
            return checks
        queries = [
            (_VIOLATION, label, ucq, None) for label, ucq in self.violation_queries()
        ]
        for axiom in self.tbox.functionality_assertions:
            if isinstance(axiom, FunctionalRole):
                role = axiom.role
                name = role.name if isinstance(role, AtomicRole) else role.role.name
                subject = 1 if isinstance(role, InverseRole) else 0
            elif isinstance(axiom, FunctionalAttribute):
                name, subject = axiom.attribute.name, 0
            else:  # pragma: no cover - defensive
                continue
            queries.append((_FUNCTIONALITY, str(axiom), _extent_query(name, 2), subject))
        unsatisfiable = [
            (1 if isinstance(node, AtomicConcept) else 2, node.name, type(node).__name__)
            for node in self.classification.unsatisfiable()
            if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute))
        ]
        # by arity, then name: a set iterates in an order the hash seed picks
        for arity, name, _ in sorted(unsatisfiable):
            queries.append((_UNSAT, name, _extent_query(name, arity), None))
        checks = []
        for kind, label, ucq, subject in queries:
            if budget is not None:
                budget.check()
            rewritten = perfect_ref(ucq, self.tbox, budget=budget)
            checks.append(_Check(kind, label, rewritten, subject))
        with self._lock:
            if self._tbox_generation == generation:
                if self._checks is None:
                    self._checks = checks
                return self._checks
        return checks

    def _violated(self, check: _Check, extents, budget, verdict_key, outcomes) -> bool:
        """Whether the data violates *check*.  With caches on, each check
        keeps its last answers and verdict, stamped, and is refreshed as
        an answer-cache entry is; a violated check stays violated while
        everything it read only grew, so it is confirmed without a join.
        Appends ``"hit"``, ``"extended"`` or ``"miss"`` to *outcomes*."""
        if budget is not None:
            budget.check()
        result = check.result
        if verdict_key is not None and result is not None:
            if result.generation == verdict_key[1]:
                outcomes.append("hit")
                return result.value[1]
        reader = _OverExtents(check.ucq, extents)
        if verdict_key is None:
            return check.violated(reader.full(budget, {}))
        tbox_generation, generation = verdict_key

        def full(started) -> Tuple[FrozenSet[Tuple], bool]:
            answers = frozenset(reader.full(budget, started))
            return answers, check.violated(answers)

        def extend(value, grown, started) -> Tuple[FrozenSet[Tuple], bool]:
            if value[1]:
                return value  # more answers never end a violation
            answers = _united(value[0], reader.extend(budget, grown, started))
            return answers, check.violated(answers)

        fresh, outcome = refresh(result, generation, reader.lookup, full, extend)
        # a violated check whose inputs grew is confirmed, not extended
        outcomes.append("hit" if outcome == "extended" and result.value[1] else outcome)
        with self._lock:
            # only over the entry this work started from, and never
            # after a TBox change dropped the checks of this generation
            if self._tbox_generation == tbox_generation and check.result is result:
                check.result = fresh
        return fresh.value[1]

    def is_consistent(self, context: Optional[ExecutionContext] = None) -> bool:
        return not self.inconsistency_witnesses(context)
