"""Query evaluation over extents (ABox or mapped virtual ABox).

A UCQ produced by a rewriter is evaluated against *extent providers*:

* :class:`ABoxExtents` — classic knowledge-base mode;
* :class:`MappingExtents` — OBDA mode: each predicate's extent is the
  answer set of its atom query, unfolded through the mappings and joined
  over the relational sources like any unfolded query.  Extents are
  cached **across queries**: each stays valid while the tables its join
  read are unchanged, and grows by the answers that read an appended row
  while they only grew (see the class);
* :class:`DatalogExtents` — wraps another provider with the auxiliary
  predicates of Presto (:mod:`repro.obda.rewriting.presto`), derived
  from their rules.

Every provider serves an extent as a :class:`Snapshot`: the rows plus a
*version* that changes whenever the rows may have.  Caches downstream of
an extent key on its version (join indexes here, Presto's derived
extents, the verdicts of :mod:`repro.obda.constraints`), so a write
invalidates only what was derived from the extents it changed.

Conjunctive queries are evaluated by a **compiled join**: the query's
variables are numbered into slots and each atom becomes one probe step
of a plan fixed before the first row is read.  The next step is always
the connected atom with the smallest estimated fan-out, its extent size
over the number of keys of the index it would probe.  Indexes hash an
extent by the string forms of the cells at the step's key positions
(constants and slots bound by earlier steps, any number of them).  They
are built lazily and cached *on the provider* (keyed by predicate and
key positions) under the version of the extent they index; when the
extent grew by appended rows the index is extended by them,
copy-on-write, instead of rebuilt.  Building and extending poll the
budget and install the index only on completion, so a timeout never
leaves a partial index behind.  A slot is bound only when something
reads it, and a step that binds none stops at its first match (a
semi-join).

The same join runs the SQL path (:func:`evaluate_table_cqs`): each
unfolded part is a union of conjunctive queries over the source tables
(:mod:`repro.obda.sql.tablecq`), whose atoms have one argument per
table column, may repeat a variable at any position, and carry ``!=``
checks, each run on the step that binds the later of its two sides.
Their steps probe the tables' own indexes
(:meth:`~repro.obda.sql.table.Table.index`).

Both entries into the join can run it over a delta
(:func:`evaluate_ucq_delta`, ``evaluate_table_cqs(grown=...)``): when
an input only grew since earlier answers were computed, each atom over
it in turn reads only the rows added, through an index built over them,
while every other atom reads its whole current input.  These are the
answers that read an added row; with the earlier answers they are the
answers over the grown inputs (the delta rule of semi-naive evaluation,
:func:`_run`), which is how :class:`~repro.obda.system.OBDASystem`
extends cached answers and consistency verdicts after an append.

Cells compare by their string forms
(:func:`~repro.obda.sql.table.join_key`, the identity the SQL executors
share; an :class:`~repro.dllite.abox.Individual` renders as its IRI), so
a query constant probes its bucket directly.  An object (``Individual``)
never equals a value, whatever their string forms — the SQL unfolder
keeps IRI templates and value columns apart the same way — so a probe
step re-checks the kind of every cell its key matched on a bound slot.
Table cells are compared by string form alone, as the algebra evaluator
compares them.
"""

from __future__ import annotations

import itertools
import threading
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    KeysView,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Sized,
    Tuple,
)

from ..dllite.abox import ABox, Individual
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..obs.metrics import global_metrics
from ..obs.trace import current_tracer
from ..runtime.budget import Budget
from .mapping import MappingCollection
from .queries import ConjunctiveQuery, Constant, UnionQuery, Variable
from .sql.database import Database
from .sql.table import Index, Read, Stamp, Table, ended, grown_index, grown_tables

__all__ = [
    "Snapshot",
    "ExtentProvider",
    "ABoxExtents",
    "MappingExtents",
    "DatalogExtents",
    "evaluate_cq",
    "evaluate_table_cqs",
    "evaluate_ucq",
    "evaluate_ucq_delta",
]

#: predicate name, arity and key argument positions — one hash index
#: per triple (a concept and a role may share a name)
IndexKey = Tuple[str, int, Tuple[int, ...]]

#: extent versions, unique across providers (``next`` on a count is
#: atomic under the GIL)
_VERSIONS = itertools.count(1)


class Snapshot(NamedTuple):
    """A predicate's extent at one version.

    ``version`` changes whenever ``rows`` may have changed.  A snapshot
    that grew out of the one at version ``base`` by the rows ``added``
    (none of which that snapshot held) lets an index built at ``base``
    be extended instead of rebuilt.
    """

    version: Hashable
    rows: Set[Tuple]
    base: Hashable = None
    added: Tuple[Tuple, ...] = ()


class ExtentProvider:
    """Maps predicate names to their extents (sets of 1- or 2-tuples).

    Subclasses implement :meth:`extent`; the default :meth:`snapshot`
    versions it by :meth:`generation`, so a provider only has to report
    a changing generation to get correct invalidation.  Providers that
    track changes per predicate (:class:`MappingExtents`,
    :class:`DatalogExtents`) override :meth:`snapshot`.

    Besides raw extents, providers serve per-argument-position hash
    indexes (:meth:`index`) used by the join evaluator, cached on the
    provider under the version of the extent each one indexes.

    Concurrency: snapshots and indexes never change once published — a
    newer version is a new object, and an index extended by appended
    rows is a new dict whose touched buckets are new lists — so a join
    that holds one keeps a consistent (if slightly stale,
    bracket-bounded) view while new queries see the new data.
    Bookkeeping happens under a small per-provider lock created on
    demand; index construction runs outside it, so slow builds don't
    serialize unrelated queries.
    """

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        raise NotImplementedError

    def snapshot(self, predicate: str, arity: int) -> Snapshot:
        """*predicate*'s extent with its version.

        The default version is :meth:`generation`, read before the
        extent: a concurrent change can leave the version behind the
        rows, never ahead of them.
        """
        version = self.generation()
        return Snapshot(version, self.extent(predicate, arity))

    def generation(self) -> int:
        """Monotone data-version counter; 0 for immutable providers."""
        return 0

    def _sync_lock(self) -> "threading.RLock":
        """The per-provider lock, created on demand.

        ``dict.setdefault`` is atomic under the GIL, so two racing
        first-callers agree on one lock object.
        """
        lock = self.__dict__.get("_provider_lock")
        if lock is None:
            # The bootstrap cannot hold the lock it is creating; the GIL
            # atomicity above is the whole synchronization story here.
            lock = self.__dict__.setdefault(  # repro-lint: disable=RL001
                "_provider_lock", threading.RLock()
            )
        return lock

    def invalidate(self) -> None:
        """Drop cached indexes (subclasses also drop cached extents)."""
        with self._sync_lock():
            self._index_cache = {}

    def index(
        self,
        predicate: str,
        arity: int,
        positions: Tuple[int, ...],
        budget: Optional[Budget] = None,
    ) -> Index:
        """Rows of *predicate* hashed by :func:`join_key` of the values
        at *positions*.

        ``positions == ()`` degenerates to one bucket holding the whole
        extent.  The index is built lazily and cached across queries
        under the version of the extent it indexes.  When the current
        snapshot grew out of that version by appended rows, the cached
        index is extended by them (or kept as it is when the delta added
        none); otherwise it is rebuilt.  Both tick *budget*; on
        exhaustion the partial index is discarded with the raised
        :class:`~repro.errors.TimeoutExceeded`.
        """
        snapshot = self.snapshot(predicate, arity)
        key: IndexKey = (predicate, arity, positions)
        lock = self._sync_lock()
        with lock:
            cache: Optional[Dict[IndexKey, Tuple[Hashable, Index]]] = (
                self.__dict__.get("_index_cache")
            )
            if cache is None:
                cache = self._index_cache = {}
            cached = cache.get(key)
        if cached is not None and cached[0] == snapshot.version:
            return cached[1]
        if (
            cached is not None
            and snapshot.base is not None
            and cached[0] == snapshot.base
        ):
            index = cached[1]
            if snapshot.added:
                index = grown_index(index, snapshot.added, positions, budget)
                global_metrics().counter("obda.evaluation.index_extends").inc()
        else:
            with current_tracer().span("index-build") as span:
                index = grown_index({}, snapshot.rows, positions, budget)
                span.annotate(
                    predicate=predicate,
                    positions=list(positions),
                    rows=len(snapshot.rows),
                )
            global_metrics().counter("obda.evaluation.index_builds").inc()
        with lock:
            # Install only over the entry this work started from: a
            # concurrent call may have installed a newer version since.
            if self.__dict__.get("_index_cache") is cache and cache.get(key) is cached:
                cache[key] = (snapshot.version, index)
        return index


class ABoxExtents(ExtentProvider):
    """Extents drawn from an explicit ABox.

    Extents are assembled once per predicate and cached until the ABox's
    generation counter moves (any successful ``add``).
    """

    def __init__(self, abox: ABox):
        self.abox = abox
        self._cache: Dict[Tuple[str, int], Set[Tuple]] = {}
        self._generation = self._abox_generation()

    def _abox_generation(self) -> int:
        return getattr(self.abox, "generation", 0)

    def generation(self) -> int:
        return self._abox_generation()

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            self._generation = self._abox_generation()
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        with self._sync_lock():
            if self._abox_generation() != self._generation:
                self.invalidate()
            cache = self._cache
            cached = cache.get((predicate, arity))
        if cached is not None:
            return cached
        if arity == 1:
            extent: Set[Tuple] = {
                (individual,)
                for individual in self.abox.concept_instances(AtomicConcept(predicate))
            }
        else:
            extent = set(self.abox.role_pairs(AtomicRole(predicate)))
            extent |= self.abox.attribute_pairs(AtomicAttribute(predicate))
        with self._sync_lock():
            if self._cache is cache:  # snapshot still current — memoize
                cache.setdefault((predicate, arity), extent)
                return cache[(predicate, arity)]
        return extent


class _Entry(NamedTuple):
    """A cached extent: its snapshot, the tables its join read and the
    database generation they were last confirmed at."""

    snapshot: Snapshot
    reads: Tuple[Read, ...]
    checked: int


class MappingExtents(ExtentProvider):
    """Extents unfolded through the mappings from the source database.

    A predicate's extent is the answer set of its atom query ``q(x[,
    y]) :- P(x[, y])``, unfolded through the mappings once per mapping
    collection (:meth:`MappingCollection.atom_unfolding`) and run by the
    compiled join over the tables' indexes
    (:meth:`~repro.obda.rewriting.unfolding.UnfoldedQuery.join`).

    The cache is shared **across queries** and keeps each extent while
    the tables its join read stay unchanged: per table it keeps the
    table and its stamps (:meth:`~repro.obda.sql.table.Table.stamp`).
    While :attr:`Database.generation` holds, checking validity is one
    integer compare.  When it moves, an extent whose tables gained no
    rows is confirmed as it is, and only extents read from a written
    table are refreshed:

    * by a **delta** when every table it read only grew: the extent
      gains the answers of the join that read an appended row (the
      delta rule of :func:`evaluate_table_cqs`), whatever the shape of
      the mapping sources: a scan, a join, a UNION, a self-join or
      several assertions;
    * by a full **pull** otherwise (a table replaced, or one that lost
      or replaced rows out of band), and on first use.

    :meth:`invalidate` drops every extent and index, for out-of-band
    edits no stamp can see (rows rewritten in place, a mapping
    collection edited).
    """

    def __init__(self, mappings: MappingCollection, database: Database):
        self.mappings = mappings
        self.database = database
        self._cache: Dict[str, _Entry] = {}
        #: full pulls through the mappings (first use, or a refresh that
        #: could not take a delta); the regression tests and
        #: ``cache_stats()["extents"]`` read this.
        self.pulls = 0
        #: refreshes that joined the mapping sources over appended rows
        self.delta_pulls = 0

    def generation(self) -> int:
        return self.database.generation

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            super().invalidate()

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        return self.snapshot(predicate, arity).rows

    def snapshot(self, predicate: str, arity: int) -> Snapshot:
        generation = self.database.generation
        cache = self._cache
        entry = cache.get(predicate)
        if entry is not None and entry.checked == generation:
            return entry.snapshot
        return self._refresh(predicate, cache, entry, generation)

    def _refresh(
        self,
        predicate: str,
        cache: Dict[str, _Entry],
        entry: Optional[_Entry],
        generation: int,
    ) -> Snapshot:
        """*entry* brought up to the database at *generation*, which was
        read before any table: every insert it counts is seen here.

        The refreshed entry is installed over *entry* unless the slot
        moved on; an entry a concurrent refresh installed for the same
        generation is served instead, so both callers see one version.
        """
        grown = None if entry is None else grown_tables(self.database, entry.reads)
        if grown is None:
            refreshed = self._pull(predicate, generation)
        elif grown[0]:
            refreshed = self._delta(predicate, entry.snapshot, grown, generation)
        else:
            refreshed = _Entry(entry.snapshot, entry.reads, generation)
        with self._sync_lock():
            self.pulls += grown is None
            self.delta_pulls += grown is not None and bool(grown[0])
            if self._cache is cache:
                current = cache.get(predicate)
                if current is entry:
                    cache[predicate] = refreshed
                elif current is not None and current.checked == generation:
                    return current.snapshot
        return refreshed.snapshot

    def _pull(self, predicate: str, generation: int) -> _Entry:
        started: Dict[str, Tuple[Table, Stamp]] = {}
        with current_tracer().span("extent-pull") as span:
            rows = self.mappings.atom_unfolding(predicate).join(self.database, read=started)
            span.annotate(predicate=predicate, rows=len(rows))
        global_metrics().counter("obda.extents.pulls").inc()
        return _Entry(Snapshot(next(_VERSIONS), rows), ended(started), generation)

    def _delta(self, predicate: str, base: Snapshot, grown, generation: int) -> _Entry:
        """*base* grown by the answers of the atom query that read a row
        appended to a table (:func:`grown_tables`), which it lacks."""
        appended, started = grown
        with current_tracer().span("extent-delta") as span:
            joined = self.mappings.atom_unfolding(predicate).join(
                self.database, grown=appended
            )
            added = tuple([row for row in joined if row not in base.rows])
            span.annotate(predicate=predicate, rows=len(added))
        global_metrics().counter("obda.extents.delta_pulls").inc()
        if added:
            base = Snapshot(next(_VERSIONS), base.rows.union(added), base.version, added)
        return _Entry(base, ended(started), generation)


class DatalogExtents(ExtentProvider):
    """Auxiliary predicates of a datalog rewriting over a base provider.

    *rewriting* is what defines them: a
    :class:`~repro.obda.rewriting.presto.DatalogRewriting`, whose rules
    serve the predicates its UCQ reads, or a classification's
    :class:`~repro.obda.rewriting.presto.AuxiliaryRules`, which serve
    every auxiliary predicate (``OBDASystem`` shares one such provider
    across queries).  Either answers ``rules_for(predicate, arity)``,
    None for a base predicate; an auxiliary predicate is its name and
    arity, since a concept and a role may share a name.

    All rules are flat (single base atom bodies over ``x``/``y``), so an
    auxiliary extent is a union of base extents with optional argument
    swapping and projection.  A predicate defined by one identity rule
    (``teaches*(x, y) :- teaches(x, y)``) is served as its base
    predicate: snapshot and indexes come from the base provider, with no
    copy.  Any other derived extent is kept while the versions of the
    base extents it was derived from hold — compared only when the base
    provider's generation moves — and its version is the tuple of
    theirs.  When each of those base extents kept its version or grew by
    one delta from it, the derived extent grows by the rules'
    projections of the added rows (a :class:`Snapshot` with
    ``base``/``added``, so its indexes are extended too); otherwise it
    is derived again.  Base predicates, extents and indexes alike, come
    from the base provider, so every query shares their indexes.
    """

    def __init__(self, rewriting, base: ExtentProvider):
        self.rewriting = rewriting
        self.base = base
        #: (predicate, arity) -> the base predicate serving it (itself
        #: for a base predicate, the body of its one identity rule for an
        #: alias), or None for a derived one; filled on first use
        self._served: Dict[Tuple[str, int], Optional[str]] = {}
        #: (predicate, arity) -> (derived snapshot, base generation it was
        #: confirmed at)
        self._cache: Dict[Tuple[str, int], Tuple[Snapshot, int]] = {}

    def generation(self) -> int:
        return self.base.generation()

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            super().invalidate()

    def _served_by(self, predicate: str, arity: int) -> Optional[str]:
        """The base predicate serving *predicate*; None when it is derived."""
        key = (predicate, arity)
        try:
            return self._served[key]
        except KeyError:
            pass
        rules = self.rewriting.rules_for(predicate, arity)
        if rules is None:
            served: Optional[str] = predicate
        elif len(rules) == 1 and _projection(rules[0]) == tuple(
            range(len(rules[0].body[0].args))
        ):
            served = rules[0].body[0].predicate
        else:
            served = None
        return self._served.setdefault(key, served)

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        return self.snapshot(predicate, arity).rows

    def snapshot(self, predicate: str, arity: int) -> Snapshot:
        served_by = self._served_by(predicate, arity)
        if served_by is not None:
            return self.base.snapshot(served_by, arity)
        key = (predicate, arity)
        generation = self.base.generation()
        cache = self._cache
        cached = cache.get(key)
        if cached is not None and cached[1] == generation:
            return cached[0]
        rules = self.rewriting.rules_for(predicate, arity)
        bodies: Dict[Tuple[str, int], Snapshot] = {}
        for rule in rules:
            atom = rule.body[0]
            body = (atom.predicate, len(atom.args))
            if body not in bodies:
                bodies[body] = self.base.snapshot(*body)
        derived = None
        if cached is not None:
            derived = _grown(rules, cached[0], bodies)
        if derived is None:
            derived = Snapshot(
                tuple([body.version for body in bodies.values()]),
                _derive(rules, {body: read.rows for body, read in bodies.items()}),
            )
            global_metrics().counter("obda.evaluation.derivations").inc()
        with self._sync_lock():
            if self._cache is cache and cache.get(key) is cached:
                cache[key] = (derived, generation)
        return derived

    def index(
        self,
        predicate: str,
        arity: int,
        positions: Tuple[int, ...],
        budget: Optional[Budget] = None,
    ) -> Index:
        served_by = self._served_by(predicate, arity)
        if served_by is not None:
            return self.base.index(served_by, arity, positions, budget)
        return super().index(predicate, arity, positions, budget)


def _projection(rule) -> Optional[Tuple[int, ...]]:
    """The body positions *rule*'s head arguments are read from, or None
    when a head variable is not bound by the body (a vacuous rule)."""
    body = rule.body[0]
    position = {
        term: index for index, term in enumerate(body.args) if isinstance(term, Variable)
    }
    indices = tuple([position[arg] for arg in rule.head.args if arg in position])
    return indices if len(indices) == len(rule.head.args) else None


def _derive(rules, rows_of: Dict[Tuple[str, int], Iterable[Tuple]]) -> Set[Tuple]:
    """The union of *rules*' heads over the base rows *rows_of*, keyed by
    body predicate and arity (a body it lacks contributes nothing)."""
    result: Set[Tuple] = set()
    for rule in rules:
        body = rule.body[0]
        rows = rows_of.get((body.predicate, len(body.args)))
        indices = _projection(rule)
        if not rows or indices is None:
            continue
        if indices == tuple(range(len(body.args))):
            result.update(rows)
        elif len(indices) == 1:
            (index,) = indices
            result.update([(row[index],) for row in rows])
        else:
            result.update(map(itemgetter(*indices), rows))
    return result


def _grown(rules, old: Snapshot, bodies: Dict[Tuple[str, int], Snapshot]):
    """*old* (derived by *rules*) brought to the base snapshots *bodies*:
    itself when none moved, grown by the projections of the rows added
    when each that moved grew by one delta from the version *old* read,
    and None when one changed otherwise."""
    added_to: Dict[Tuple[str, int], Tuple[Tuple, ...]] = {}
    for (key, body), read in zip(bodies.items(), old.version):
        if body.version != read:
            if body.base != read:
                return None
            added_to[key] = body.added
    if not added_to:
        return old
    added = tuple(_derive(rules, added_to) - old.rows)
    global_metrics().counter("obda.evaluation.derived_deltas").inc()
    version = tuple([body.version for body in bodies.values()])
    return Snapshot(version, old.rows.union(added) if added else old.rows, old.version, added)


def _same_term(first: object, second: object) -> bool:
    """Cell identity: the same string form, and both objects
    (``Individual``) or both values."""
    return isinstance(first, Individual) is isinstance(second, Individual) and (
        str(first) == str(second)
    )


def _same_text(first: object, second: object) -> bool:
    """Source-cell equality: the same string form."""
    return str(first) == str(second)


#: a conjunctive query in the terms of :func:`_compile`: ``(shapes,
#: captures, unequal, answer, size)``.  Per atom, per argument position,
#: ``shapes`` holds the part the position plays: a constant's string form
#: (str), a slot (int) or nothing (None): a slot is bound only because
#: something reads it (a key of another atom, a repeat within its own, an
#: inequality or the answer), so a step that binds none can stop at its
#: first match.  ``captures`` holds per atom the
#: ``(position, slot)`` pairs bound from every matching row besides (the
#: raw cells a SQL answer reads), or is None when no atom has any;
#: ``unequal`` the pairs whose string forms must differ, each side a slot
#: or a constant's string form; ``answer`` the answer slots and ``size``
#: the number of slots.
Query = Tuple[
    Sequence[Sequence[object]],
    Optional[Tuple[Tuple[Tuple[int, int], ...], ...]],
    Tuple[Tuple[object, object], ...],
    Tuple[int, ...],
    int,
]


def _shape(cq: ConjunctiveQuery) -> Query:
    """*cq* over extents: variables numbered into slots by first
    occurrence, constants as their string forms, and a variable that
    occurs once and is no answer variable as None.  Plain loops: this
    runs once per evaluated disjunct, most of them a few terms long."""
    slot_of: Dict[str, int] = {}  # by name, a variable's identity
    uses: List[int] = []
    shapes: List[List[object]] = []
    for atom in cq.atoms:
        shape: List[object] = []
        for term in atom.args:
            if isinstance(term, Constant):
                shape.append(term.key)
                continue
            slot = slot_of.get(term.name)
            if slot is None:
                slot_of[term.name] = slot = len(uses)
                uses.append(1)
            else:
                uses[slot] += 1
            shape.append(slot)
        shapes.append(shape)
    answer = tuple([slot_of[variable.name] for variable in cq.answer_vars])
    for slot in answer:
        uses[slot] = 2
    if 1 in uses:
        for shape in shapes:
            for position, part in enumerate(shape):
                if part.__class__ is int and uses[part] == 1:
                    shape[position] = None
    return shapes, None, (), answer, len(uses)


def _fan_out(rows: Sized, index: Optional[Index]) -> float:
    """The rows a probe of *index* over the extent *rows* yields on
    average; the whole extent for a step without a key (no index)."""
    if index is None:
        return len(rows)
    return len(rows) / len(index) if index else 0.0


def _compile(
    query: Query,
    rows_of: Sequence[Sized],
    index_of: Callable[[int, Tuple[int, ...]], Index],
    typed: bool,
    budget: Optional[Budget],
    probes: Optional[List[Tuple[int, Tuple[int, ...], float]]],
):
    """*query* compiled into probe steps over the rows of its atoms,
    *rows_of*: ``(steps, size, constants, answer, same)``, or None when
    the join has no answer (an empty extent or constant bucket).
    ``index_of(atom, positions)`` serves the index of an atom's rows on
    key positions.

    A constant in a key that also reads a slot takes a slot of its own,
    whose string form ``constants`` lists; so does a constant side of an
    inequality.  Each step is ``(rows, index, k0, key, binds, rechecks,
    checks)``: the rows to scan (the extent, or the bucket of an
    all-constant key), else the index to probe with the string form in
    slot ``k0`` (one-column keys) or those ``key`` gets from the slots;
    the ``(position, slot)`` pairs to bind; those to re-check the kind of
    (keyed slots, *typed* queries only); and ``checks``: None for a step
    that checks nothing else per row, True for one that only stops at
    its first match, because nothing later (no key, check or answer)
    reads the slots it binds, or else ``(repeats, unequal, first)``: the
    ``(position, first position)`` of a variable repeated within the
    atom, compared by ``same`` (cell identity when *typed*, string form
    otherwise), the slot pairs whose string forms must differ, checked
    on the step that binds the later of their sides, and whether the
    step stops at its first match.

    The plan is built in one pass.  Each step takes, among the atoms
    sharing a bound slot (all atoms when none does), the one with the
    smallest fan-out: ``len(rows) / len(index)`` for the index at its
    key positions, or ``len(rows)`` when it has no key.  Ranking fetches
    the index only of keyed candidates, and none when one atom remains.
    With *probes*, each step's atom number, key positions and estimated
    fan-out are appended to it.
    """
    if not all(rows_of):
        return None
    shapes, captures, pending, answer, size = query
    bound: Set[int] = set()
    constants: List[Tuple[int, str]] = []
    fetched: Dict[Tuple[int, Tuple[int, ...]], Index] = {}
    steps: List[Tuple] = []
    remaining = list(range(len(shapes)))
    while remaining:
        if budget is not None:
            budget.check()
        pick = remaining[0]
        if len(remaining) > 1:
            candidates = [
                i for i in remaining if not bound.isdisjoint(shapes[i])
            ] or remaining
            pick = candidates[0]
            if len(candidates) > 1:
                best = None
                for i in candidates:
                    positions = tuple([
                        position
                        for position, part in enumerate(shapes[i])
                        if isinstance(part, str) or part in bound
                    ])
                    index = fetched.get((i, positions))
                    if positions and index is None:
                        index = fetched[i, positions] = index_of(i, positions)
                    rank = _fan_out(rows_of[i], index)
                    if best is None or rank < best:
                        pick, best = i, rank
        remaining.remove(pick)
        key_positions: List[int] = []
        key: List = []
        binds: List[Tuple[int, int]] = []
        rechecks: List[Tuple[int, int]] = []
        repeats: List[Tuple[int, int]] = []
        reads_slot = False
        for position, part in enumerate(shapes[pick]):
            if isinstance(part, str):
                key_positions.append(position)
                key.append(part)
            elif part is None:
                continue
            elif part in bound:
                key_positions.append(position)
                key.append(part)
                reads_slot = True
                if typed:
                    rechecks.append((position, part))
            else:
                for at, slot in binds:
                    if slot == part:
                        repeats.append((position, at))
                        break
                else:
                    binds.append((position, part))
        bound.update([slot for _, slot in binds])
        if captures is not None:
            binds.extend(captures[pick])
        unequal: Tuple = ()
        if pending:
            placed, waiting = [], []
            for pair in pending:
                if not all([isinstance(side, str) or side in bound for side in pair]):
                    waiting.append(pair)
                    continue
                sides = []
                for side in pair:
                    if isinstance(side, str):
                        constants.append((size, side))
                        side, size = size, size + 1
                    sides.append(side)
                placed.append(tuple(sides))
            unequal, pending = tuple(placed), waiting
        rows = rows_of[pick]
        positions = tuple(key_positions)
        index = fetched.get((pick, positions))
        if positions and index is None:
            index = index_of(pick, positions)
        if probes is not None:
            probes.append((pick, positions, _fan_out(rows, index)))
        k0 = getter = None
        if reads_slot:
            for at, part in enumerate(key):
                if isinstance(part, str):
                    constants.append((size, part))
                    key[at] = size
                    size += 1
            if len(key) == 1:
                k0 = key[0]
            else:
                getter = itemgetter(*key)
            rows = None
        elif positions:
            rows = index.get(tuple(key))
            if not rows:
                return None
        # only a step that binds no slot can stop at its first match: every
        # slot is bound because something reads it (see Query)
        if repeats or unequal:
            checks = (tuple(repeats), unequal, not binds)
        else:
            checks = None if binds else True
        steps.append((rows, index, k0, getter, tuple(binds), tuple(rechecks), checks))
    return steps, size, constants, answer, _same_term if typed else _same_text


def _join(plan, budget: Optional[Budget], identity: bool = False):
    """Run a plan of :func:`_compile` (None: no answer): backtracking
    over per-call slot lists, polling *budget* once per binding.  Binding
    a slot caches the string form and kind of its cell for the keys and
    checks of later steps.  With *identity*, the answers are the keys of
    a dict, in the order found, each row paired with its
    :func:`join_key`, so rows equal under ``==`` that render apart
    (``1`` and ``1.0``) stay two answers, as do ``1`` and ``"1"``."""
    answers = {} if identity else set()
    if plan is None:
        return answers
    steps, size, constants, answer, same = plan
    values: List[object] = [None] * size
    strs: List[Optional[str]] = [None] * size
    kinds: List[bool] = [False] * size
    for slot, text in constants:
        strs[slot] = text
    last = len(steps)

    def emit(depth: int) -> None:
        if budget is not None:
            budget.tick()
        row = tuple([values[slot] for slot in answer])
        if identity:
            answers[tuple([strs[slot] for slot in answer]), row] = None
        else:
            answers.add(row)

    def join(depth: int) -> None:
        if budget is not None:
            budget.tick()
        rows, index, k0, key, binds, rechecks, checks = steps[depth]
        if rows is None:
            rows = index.get((strs[k0],) if key is None else key(strs), ())
        depth += 1
        then = join if depth < last else emit
        if checks is None:
            for row in rows:
                for position, slot in rechecks:
                    # the key matched the string form only
                    if isinstance(row[position], Individual) is not kinds[slot]:
                        break
                else:
                    for position, slot in binds:
                        value = values[slot] = row[position]
                        strs[slot] = value if isinstance(value, str) else str(value)
                        kinds[slot] = isinstance(value, Individual)
                    then(depth)
            return
        if checks is True:
            # a semi-join: the first row that passes is the only one
            # needed, and nothing reads what it would bind
            for row in rows:
                for position, slot in rechecks:
                    if isinstance(row[position], Individual) is not kinds[slot]:
                        break
                else:
                    then(depth)
                    return
            return
        repeats, unequal, first = checks
        for row in rows:
            for position, slot in rechecks:
                if isinstance(row[position], Individual) is not kinds[slot]:
                    break
            else:
                for position, other in repeats:
                    if not same(row[position], row[other]):
                        break
                else:
                    for position, slot in binds:
                        value = values[slot] = row[position]
                        strs[slot] = value if isinstance(value, str) else str(value)
                        kinds[slot] = isinstance(value, Individual)
                    for left, right in unequal:
                        if strs[left] == strs[right]:
                            break
                    else:
                        then(depth)
                        if first:
                            break

    (join if last else emit)(0)
    return answers


def _evaluate(
    cq: ConjunctiveQuery,
    extents: ExtentProvider,
    budget: Optional[Budget],
    tracer,
    read: Dict[Tuple[str, int], Snapshot],
    grown: Optional[Dict[Tuple[str, int], Sequence[Tuple]]] = None,
) -> Set[Tuple]:
    """:func:`evaluate_cq` with the tracer looked up, or None when it is
    disabled, reading the extents through *read*; with *grown*, as
    :func:`evaluate_ucq_delta` evaluates one disjunct."""
    if budget is not None:
        budget.check()
    atoms = cq.atoms
    keys = [(atom.predicate, len(atom.args)) for atom in atoms]
    seeds = None
    if grown is not None:
        seeds = [(i, grown[key]) for i, key in enumerate(keys) if key in grown]
        if not seeds:
            return set()  # nothing it reads grew
    rows_of = []
    for key in keys:
        snapshot = read.get(key)
        if snapshot is None:
            snapshot = read[key] = extents.snapshot(*key)
        rows_of.append(snapshot.rows)
    if tracer is None and not all(rows_of):
        return set()  # before the query is shaped: many disjuncts end here

    def index_of(i: int, positions: Tuple[int, ...]) -> Index:
        atom = atoms[i]
        return extents.index(atom.predicate, atom.arity, positions, budget=budget)

    labels = None if tracer is None else (lambda: [str(atom) for atom in atoms])
    return _run(_shape(cq), rows_of, index_of, True, budget, tracer, labels, seeds)


def _run(
    query: Query,
    rows_of: Sequence[Sized],
    index_of: Callable[[int, Tuple[int, ...]], Index],
    typed: bool,
    budget: Optional[Budget],
    tracer,
    labels: Optional[Callable[[], List[str]]],
    seeds: Optional[Sequence[Tuple[int, Sequence[Tuple]]]] = None,
    identity: bool = False,
) -> Set[Tuple]:
    """The answers of *query* over the rows of its atoms, *rows_of*, by
    :func:`_compile` and :func:`_join`; with a *tracer*, a ``join`` span
    annotated with the plan, its atoms labelled by ``labels()``.

    With *seeds*, ``(atom, added)`` pairs naming the atoms whose rows
    grew by the rows *added*, only the answers that read an added row:
    one join per seed, in which that atom reads its added rows alone
    (through an index built over them) and every other atom its whole
    input.  Together with the answers over the inputs before they grew,
    these are the answers over the grown inputs: the delta rule of
    semi-naive evaluation, which the datalog engine applies to rule
    bodies (:mod:`repro.obda.datalog`).  The join span of a seeded run
    names the atom and counts its added rows.
    """
    if seeds is None:
        return _joined(query, rows_of, index_of, typed, budget, tracer, labels, identity)
    found = {} if identity else set()
    for atom, added in seeds:
        rows = list(rows_of)
        rows[atom] = added

        def index_over_added(
            i: int, positions: Tuple[int, ...], atom=atom, added=added
        ) -> Index:
            if i == atom:
                return grown_index({}, added, positions, budget)
            return index_of(i, positions)

        found |= _joined(
            query, rows, index_over_added, typed, budget, tracer, labels, identity,
            (atom, len(added)),
        )
    return found


def _joined(
    query: Query,
    rows_of: Sequence[Sized],
    index_of: Callable[[int, Tuple[int, ...]], Index],
    typed: bool,
    budget: Optional[Budget],
    tracer,
    labels: Optional[Callable[[], List[str]]],
    identity: bool,
    seed: Optional[Tuple[int, int]] = None,
) -> Set[Tuple]:
    """One compiled join of :func:`_run`; *seed* is the ``(atom, added
    row count)`` of a seeded run."""
    if tracer is None:
        return _join(_compile(query, rows_of, index_of, typed, budget, None), budget, identity)
    with tracer.span("join") as span:
        probes: List[Tuple[int, Tuple[int, ...], float]] = []
        plan = _compile(query, rows_of, index_of, typed, budget, probes)
        answers = _join(plan, budget, identity)
        names = labels()
        _annotate(span, names, probes, len(answers))
        if seed is not None:
            span.annotate(delta_atom=names[seed[0]], delta_rows=seed[1])
        return answers


def _annotate(span, labels: List[str], probes, answers: int) -> None:
    """A ``join`` span's plan: the atoms in probe order, their key
    positions and estimated fan-outs, and the answer count."""
    span.annotate(
        atoms=[labels[i] for i, _, _ in probes],
        keys=[list(positions) for _, positions, _ in probes],
        fan_outs=[round(fan_out, 3) for _, _, fan_out in probes],
        answers=answers,
    )


def evaluate_table_cqs(
    cqs: Iterable,
    tables: Dict[str, Table],
    budget: Optional[Budget] = None,
    grown: Optional[Dict[str, Sequence[Tuple]]] = None,
) -> KeysView[Tuple[Tuple[str, ...], Tuple]]:
    """The output rows of the table CQs *cqs*
    (:class:`~repro.obda.sql.tablecq.TableCQ`) over *tables* (by name),
    each paired with its :func:`join_key`: a row is one answer per
    identity, so ``1`` and ``1.0`` stay apart, and so do ``1`` and
    ``"1"``.  The pairs form a set that iterates in the order the join
    finds them (table order, for a CQ over one table): the keys of a
    dict.

    Each CQ runs through the compiled join of :func:`evaluate_cq`, its
    atoms probing :meth:`Table.index` and its cells comparing by string
    form alone, as the algebra evaluator compares them.  The budget is
    polled once per binding; with a tracer installed, each CQ is a
    ``join`` span annotated with its plan.

    With *grown* (table name -> the rows appended to it since the rows
    were last computed), only the rows that read an appended row, by
    the delta rule of :func:`_run`: one join per atom over a grown
    table, that atom reading the appended rows alone.  A CQ over no
    grown table is skipped.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        tracer = None
    found: Dict[Tuple[Tuple[str, ...], Tuple], None] = {}
    for cq in cqs:
        if budget is not None:
            budget.check()
        seeds = None
        if grown is not None:
            seeds = [
                (i, grown[name]) for i, name in enumerate(cq.tables) if name in grown
            ]
            if not seeds:
                continue
        read = [tables[name] for name in cq.tables]

        def index_of(i: int, positions: Tuple[int, ...], read=read) -> Index:
            return read[i].index(positions, budget)

        query = cq[1:]  # the table names lead, then the query
        found |= _run(
            query,
            [table.rows for table in read],
            index_of,
            False,
            budget,
            tracer,
            cq.labels,
            seeds,
            identity=True,
        )
    return found.keys()


def evaluate_cq(
    cq: ConjunctiveQuery,
    extents: ExtentProvider,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """All answer tuples of *cq* over *extents* (set semantics).

    The query is compiled into probe steps in fan-out order (see
    :func:`_compile`); each step probes the index of its atom on the
    string forms of its constants and earlier slots, re-checks the kind
    of each keyed slot and compares a variable repeated within the atom.
    Indexes come from :meth:`ExtentProvider.index`, so they persist
    across queries with the same probe shape instead of being rebuilt
    per evaluation.  With a tracer installed, the evaluation is a
    ``join`` span annotated with the plan and the answer count.

    With a *budget*, the join polls it once per binding (amortized) and
    aborts with :class:`~repro.errors.TimeoutExceeded` instead of running
    an unbounded join to completion.
    """
    tracer = current_tracer()
    return _evaluate(cq, extents, budget, tracer if tracer.enabled else None, {})


def evaluate_ucq(
    ucq: UnionQuery,
    extents: ExtentProvider,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """Certain-answer union over all disjuncts (budget polled per disjunct).

    Each predicate's snapshot is read once, so every disjunct sees the
    same rows of it.  The tracer is looked up once: under the NullTracer
    no disjunct opens a span or computes its annotations."""
    return _evaluate_ucq(ucq, extents, budget, {}, None)


def evaluate_ucq_delta(
    ucq: UnionQuery,
    extents: ExtentProvider,
    read: Dict[Tuple[str, int], Snapshot],
    grown: Optional[Dict[Tuple[str, int], Sequence[Tuple]]] = None,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """:func:`evaluate_ucq`, reading each predicate's rows through *read*
    (``(predicate, arity)`` -> snapshot): the snapshot held there, or one
    read from *extents* once and added, so that afterwards *read* holds
    the versions the answers were computed from.  Indexes still come
    from *extents*, for the snapshot current when each is probed.

    With *grown* (``(predicate, arity)`` -> the rows its snapshot in
    *read* added to the one earlier answers were computed from), only
    the answers that read an added row: per disjunct, one join per atom
    over a grown predicate, that atom reading the added rows alone (the
    delta rule of :func:`_run`).  A disjunct over no grown predicate is skipped.
    Together with the earlier answers, these are the answers over the
    snapshots in *read*.
    """
    return _evaluate_ucq(ucq, extents, budget, read, grown)


def _evaluate_ucq(ucq, extents, budget, read, grown) -> Set[Tuple]:
    tracer = current_tracer()
    if not tracer.enabled:
        tracer = None
    answers: Set[Tuple] = set()
    for disjunct in ucq:
        if budget is not None:
            budget.check()
        answers |= _evaluate(disjunct, extents, budget, tracer, read, grown)
    return answers
