"""Query evaluation over extents (ABox or mapped virtual ABox).

A UCQ produced by a rewriter is evaluated against *extent providers*:

* :class:`ABoxExtents` — classic knowledge-base mode;
* :class:`MappingExtents` — OBDA mode, pulling each predicate's extent
  through the mappings from the relational sources.  Extents are cached
  **across queries**: each stays valid while the tables its mapping
  sources read are unchanged, and a table that only grew extends the
  extents mapped from it by the rows appended (see the class);
* :class:`DatalogExtents` — wraps another provider with the auxiliary
  predicates of a Presto :class:`~repro.obda.rewriting.presto.DatalogRewriting`.

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
(constants and slots bound by earlier steps).  They are built lazily
and cached *on the provider* (keyed by predicate and key positions)
under the version of the extent they index; when the extent grew by
appended rows the index is extended by them, copy-on-write, instead of
rebuilt.  Building and extending poll the budget and install the index
only on completion, so a timeout never leaves a partial index behind.

Cells compare by their string forms
(:func:`~repro.obda.sql.stats.join_key`, the identity the SQL executors
share; an :class:`~repro.dllite.abox.Individual` renders as its IRI), so
a query constant probes its bucket directly.  An object (``Individual``)
never equals a value, whatever their string forms — the SQL unfolder
keeps IRI templates and value columns apart the same way — so a probe
step re-checks the kind of every cell its key matched on a bound slot.
"""

from __future__ import annotations

import itertools
import threading
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..dllite.abox import ABox, Individual
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..obs.metrics import global_metrics
from ..obs.trace import current_tracer
from ..runtime.budget import Budget
from .mapping import MappingCollection
from .queries import Atom, Constant, ConjunctiveQuery, UnionQuery, Variable
from .sql.database import Database
from .sql.table import Index, Table, grown_index

__all__ = [
    "Snapshot",
    "ExtentProvider",
    "ABoxExtents",
    "MappingExtents",
    "DatalogExtents",
    "evaluate_cq",
    "evaluate_ucq",
]

#: predicate name + key argument positions — one hash index per pair
IndexKey = Tuple[str, Tuple[int, ...]]

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
        key: IndexKey = (predicate, positions)
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
        self._cache: Dict[str, Set[Tuple]] = {}
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
            cached = cache.get(predicate)
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
                cache.setdefault(predicate, extent)
                return cache[predicate]
        return extent


#: what a cached extent consumed of one source table: ``(table,
#: generation, consumed, last)`` — its first ``consumed`` rows as of the
#: table's ``generation``, and ``rows[consumed - 1]`` (None when nothing
#: was consumed), which an out-of-band truncation that regrew the table
#: replaced
_Read = Tuple[Table, int, int, object]


def _read(table: Table) -> _Read:
    """Record *table*: its generation first, then its row count (the
    order of :meth:`SqliteBackend._ensure_loaded`).  A row appended
    between the two reads is consumed now and offered again by the next
    delta, where it is already present — never skipped."""
    generation = table.generation
    rows = table.rows
    consumed = len(rows)
    return table, generation, consumed, rows[consumed - 1] if consumed else None


class _Entry:
    """A cached extent of :class:`MappingExtents`, never changed once
    installed: a refresh installs a new entry."""

    __slots__ = ("snapshot", "reads", "checked")

    def __init__(self, snapshot: Snapshot, reads: Tuple[_Read, ...], checked: int):
        self.snapshot = snapshot
        #: what the extent consumed of each table its sources read, in
        #: the order of :meth:`MappingCollection.tables`
        self.reads = reads
        #: the database generation the reads were last confirmed at
        self.checked = checked


class _Appended:
    """A one-table database holding only ``table.rows[start:stop]``,
    under the table's name and columns: what a single-scan mapping
    source reads to compute the tuples those rows add."""

    def __init__(self, table: Table, start: int, stop: int):
        self.columns = table.columns
        self.rows = table.rows[start:stop]

    def table(self, name: str) -> "_Appended":
        return self


class MappingExtents(ExtentProvider):
    """Extents unfolded through the mappings from the source database.

    The cache is shared **across queries** and keeps each predicate's
    extent while the tables its mapping sources read stay unchanged:
    per table it records the table object, its generation and the rows
    consumed.  While :attr:`Database.generation` holds, checking
    validity is one integer compare.  When it moves, an extent whose
    tables all kept their generations is confirmed as it is, and only
    extents mapped from a written table are refreshed:

    * by a **delta** when one assertion feeds the predicate, its source
      reads one table once, and that table only grew: the extent gains
      the source evaluated over the appended rows.  This is exact —
      tables are append-only and the mapping algebra over one scan
      (selection, projection, renaming) maps each row on its own, so the
      source over the grown table is the source over the old rows plus
      the source over the new ones;
    * by a full **pull** through
      :meth:`MappingCollection.predicate_extent` otherwise (a join or
      union over tables, a second assertion, a shrunk or replaced table).

    :meth:`invalidate` drops every extent and index, for out-of-band
    edits no counter can see (rows rewritten in place, a mapping
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
        #: refreshes that evaluated a source over appended rows only
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
        tables = list(map(self.database.table, self.mappings.tables(predicate)))
        pulled = delta = False
        if entry is not None and len(entry.reads) == len(tables) and all(
            read[0] is table and read[1] == table.generation
            for read, table in zip(entry.reads, tables)
        ):
            refreshed = _Entry(entry.snapshot, entry.reads, generation)
        else:
            reads = tuple(map(_read, tables))
            snapshot = None
            if entry is not None:
                snapshot = self._delta(predicate, entry, reads)
                delta = snapshot is not None
            if snapshot is None:
                snapshot = self._pull(predicate)
                pulled = True
            refreshed = _Entry(snapshot, reads, generation)
        with self._sync_lock():
            self.pulls += pulled
            self.delta_pulls += delta
            if self._cache is cache:
                current = cache.get(predicate)
                if current is entry:
                    cache[predicate] = refreshed
                elif current is not None and current.checked == generation:
                    return current.snapshot
        return refreshed.snapshot

    def _delta(self, predicate: str, entry: _Entry, reads) -> Optional[Snapshot]:
        """*entry*'s snapshot grown by the rows appended to the table its
        one source reads once, or None when the mapping has another shape
        or that table did not only grow."""
        sources = self.mappings.sources(predicate)
        if len(sources) != 1 or len(sources[0][0].tables) != 1:
            return None  # a second assertion, a join or a union
        assertion, target = sources[0]
        ((old_table, _, start, last),) = entry.reads
        ((table, _, stop, _),) = reads
        if (
            table is not old_table
            or stop < start
            or (start and table.rows[start - 1] is not last)
        ):
            return None
        base = entry.snapshot
        with current_tracer().span("extent-delta") as span:
            appended = _Appended(table, start, stop)
            added = tuple(
                dict.fromkeys(
                    item
                    for item in assertion.target_extent(target, appended)
                    if item not in base.rows
                )
            )
            span.annotate(predicate=predicate, rows=len(added))
        global_metrics().counter("obda.extents.delta_pulls").inc()
        if not added:
            return base
        return Snapshot(next(_VERSIONS), base.rows.union(added), base.version, added)

    def _pull(self, predicate: str) -> Snapshot:
        with current_tracer().span("extent-pull") as span:
            pulled = self.mappings.predicate_extent(self.database, predicate)
            span.annotate(predicate=predicate, rows=len(pulled))
        global_metrics().counter("obda.extents.pulls").inc()
        return Snapshot(next(_VERSIONS), pulled)


class DatalogExtents(ExtentProvider):
    """Auxiliary predicates of a datalog rewriting over a base provider.

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
        #: auxiliary predicate -> the base predicate its one rule copies
        self._aliases: Dict[str, str] = {
            head: rules[0].body[0].predicate
            for head, rules in rewriting.rules_by_head.items()
            if len(rules) == 1
            and _projection(rules[0]) == tuple(range(len(rules[0].body[0].args)))
        }
        #: predicate -> (derived snapshot, base generation it was confirmed at)
        self._cache: Dict[str, Tuple[Snapshot, int]] = {}

    def generation(self) -> int:
        return self.base.generation()

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}
            super().invalidate()

    def _served_by(self, predicate: str) -> Optional[str]:
        """The base predicate serving *predicate*; None when it is derived."""
        if predicate not in self.rewriting.rules_by_head:
            return predicate
        return self._aliases.get(predicate)

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        return self.snapshot(predicate, arity).rows

    def snapshot(self, predicate: str, arity: int) -> Snapshot:
        served_by = self._served_by(predicate)
        if served_by is not None:
            return self.base.snapshot(served_by, arity)
        rules = self.rewriting.rules_by_head[predicate]
        generation = self.base.generation()
        cache = self._cache
        cached = cache.get(predicate)
        if cached is not None and cached[1] == generation:
            return cached[0]
        bodies: Dict[Tuple[str, int], Snapshot] = {}
        for rule in rules:
            atom = rule.body[0]
            key = (atom.predicate, len(atom.args))
            if key not in bodies:
                bodies[key] = self.base.snapshot(*key)
        derived = None
        if cached is not None:
            derived = _grown(rules, cached[0], bodies)
        if derived is None:
            derived = Snapshot(
                tuple([body.version for body in bodies.values()]),
                _derive(rules, {key: body.rows for key, body in bodies.items()}),
            )
        with self._sync_lock():
            if self._cache is cache and cache.get(predicate) is cached:
                cache[predicate] = (derived, generation)
        return derived

    def index(
        self,
        predicate: str,
        arity: int,
        positions: Tuple[int, ...],
        budget: Optional[Budget] = None,
    ) -> Index:
        served_by = self._served_by(predicate)
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


def _fan_out(rows: Set[Tuple], index: Optional[Index]) -> float:
    """The rows a probe of *index* over the extent *rows* yields on
    average; the whole extent for a step without a key (no index)."""
    if index is None:
        return len(rows)
    return len(rows) / len(index) if index else 0.0


def _compile(
    cq: ConjunctiveQuery,
    extents: ExtentProvider,
    budget: Optional[Budget],
    probes: Optional[List[Tuple[Atom, Tuple[int, ...], float]]],
):
    """*cq* compiled into probe steps over *extents*: ``(steps, size,
    constants, answer_slots)``, or None when the join has no answer (an
    empty extent or constant bucket).

    Variables are numbered into slots by first occurrence; a constant in
    a key that also reads a slot takes a slot of its own, whose string
    form ``constants`` lists.  Each step is ``(rows, index, k0, k1,
    binds, rechecks, repeat)``: the rows to scan (the extent, or the
    bucket of an all-constant key), else the index to probe with the
    string forms in slots ``k0`` (and ``k1``); the ``(position, slot)``
    pairs to bind and those to re-check the kind of (the keyed slots);
    and the ``(position, first position)`` of a variable repeated within
    the atom, or None.

    The plan is built in one pass.  Each step takes, among the atoms
    sharing a bound slot (all atoms when none does), the one with the
    smallest fan-out: ``len(extent) / len(index)`` for the index at its
    key positions, or ``len(extent)`` when it has no key.  Ranking
    fetches the index only of keyed candidates, and none when one atom
    remains.  With *probes*, each step's atom, key positions and
    estimated fan-out are appended to it.
    """
    atoms = cq.atoms
    extents_of = [extents.extent(atom.predicate, atom.arity) for atom in atoms]
    if not all(extents_of):
        return None
    slot_of: Dict[Variable, int] = {}
    shapes = [
        tuple([
            term.key if isinstance(term, Constant) else slot_of.setdefault(term, len(slot_of))
            for term in atom.args
        ])
        for atom in atoms
    ]
    size = len(slot_of)
    bound: Set[int] = set()
    constants: List[Tuple[int, str]] = []
    fetched: Dict[Tuple[int, Tuple[int, ...]], Index] = {}
    steps: List[Tuple] = []
    remaining = list(range(len(atoms)))
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
                        index = fetched[i, positions] = extents.index(
                            atoms[i].predicate, atoms[i].arity, positions, budget=budget
                        )
                    rank = _fan_out(extents_of[i], index)
                    if best is None or rank < best:
                        pick, best = i, rank
        remaining.remove(pick)
        key_positions: List[int] = []
        key: List = []
        binds: List[Tuple[int, int]] = []
        rechecks: List[Tuple[int, int]] = []
        repeat = None
        for position, part in enumerate(shapes[pick]):
            if isinstance(part, str):
                key_positions.append(position)
                key.append(part)
            elif part in bound:
                key_positions.append(position)
                key.append(part)
                rechecks.append((position, part))
            elif binds and binds[0][1] == part:
                # atoms have arity 1 or 2: only position 0 can bind it
                repeat = (position, binds[0][0])
            else:
                binds.append((position, part))
        bound.update([slot for _, slot in binds])
        atom = atoms[pick]
        rows = extents_of[pick]
        positions = tuple(key_positions)
        index = fetched.get((pick, positions))
        if positions and index is None:
            index = extents.index(atom.predicate, atom.arity, positions, budget=budget)
        if probes is not None:
            probes.append((atom, positions, _fan_out(rows, index)))
        k0 = k1 = None
        if rechecks:
            for at, part in enumerate(key):
                if isinstance(part, str):
                    constants.append((size, part))
                    key[at] = size
                    size += 1
            k0 = key[0]
            k1 = key[1] if len(key) > 1 else None
            rows = None
        elif positions:
            rows = index.get(tuple(key))
            if not rows:
                return None
        steps.append((rows, index, k0, k1, tuple(binds), tuple(rechecks), repeat))
    answer_slots = tuple([slot_of[variable] for variable in cq.answer_vars])
    return steps, size, constants, answer_slots


def _join(plan, budget: Optional[Budget]) -> Set[Tuple]:
    """Run a plan of :func:`_compile`: backtracking over per-call slot
    lists, polling *budget* once per binding.  Binding a slot caches the
    string form and kind of its cell for the keys and kind re-checks of
    later steps."""
    steps, size, constants, answer_slots = plan
    values: List[object] = [None] * size
    strs: List[Optional[str]] = [None] * size
    kinds: List[bool] = [False] * size
    for slot, text in constants:
        strs[slot] = text
    answers: Set[Tuple] = set()
    last = len(steps)

    def join(depth: int) -> None:
        if budget is not None:
            budget.tick()
        if depth == last:
            answers.add(tuple([values[slot] for slot in answer_slots]))
            return
        rows, index, k0, k1, binds, rechecks, repeat = steps[depth]
        if rows is None:
            rows = index.get((strs[k0],) if k1 is None else (strs[k0], strs[k1]), ())
        depth += 1
        for row in rows:
            for position, slot in rechecks:
                # the key matched the string form only
                if isinstance(row[position], Individual) is not kinds[slot]:
                    break
            else:
                if repeat is not None and not _same_term(
                    row[repeat[0]], row[repeat[1]]
                ):
                    continue
                for position, slot in binds:
                    value = values[slot] = row[position]
                    strs[slot] = value if isinstance(value, str) else str(value)
                    kinds[slot] = isinstance(value, Individual)
                join(depth)

    join(0)
    return answers


def _evaluate(
    cq: ConjunctiveQuery,
    extents: ExtentProvider,
    budget: Optional[Budget],
    tracer,
) -> Set[Tuple]:
    """:func:`evaluate_cq` with the tracer looked up, or None when it is
    disabled."""
    if budget is not None:
        budget.check()
    if tracer is None:
        plan = _compile(cq, extents, budget, None)
        return set() if plan is None else _join(plan, budget)
    with tracer.span("join") as span:
        probes: List[Tuple[Atom, Tuple[int, ...], float]] = []
        plan = _compile(cq, extents, budget, probes)
        answers = set() if plan is None else _join(plan, budget)
        span.annotate(
            atoms=[str(atom) for atom, _, _ in probes],
            keys=[list(positions) for _, positions, _ in probes],
            fan_outs=[round(fan_out, 3) for _, _, fan_out in probes],
            answers=len(answers),
        )
        return answers


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
    return _evaluate(cq, extents, budget, tracer if tracer.enabled else None)


def evaluate_ucq(
    ucq: UnionQuery,
    extents: ExtentProvider,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """Certain-answer union over all disjuncts (budget polled per disjunct).

    The tracer is looked up once: under the NullTracer no disjunct opens
    a span or computes its annotations."""
    tracer = current_tracer()
    if not tracer.enabled:
        tracer = None
    answers: Set[Tuple] = set()
    for disjunct in ucq:
        if budget is not None:
            budget.check()
        answers |= _evaluate(disjunct, extents, budget, tracer)
    return answers
