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

Every provider serves an extent as a table
(:meth:`ExtentProvider.table`): an :class:`~repro.obda.sql.table.Extent`,
the append-only table of distinct rows that grows in place by the rows
of a delta and is replaced when it changed otherwise.  What is computed
from an extent (its join indexes, Presto's derived extents, cached
answers and consistency verdicts, the verdicts of
:mod:`repro.obda.constraints`) keeps the extent's table stamps, the rule
every reader of a source table asks
(:meth:`~repro.obda.sql.table.Table.stamp`), so a write invalidates only
what was computed from the extents it changed, and what read an extent
that only grew is extended by the rows appended.  Mapped and derived
extents are kept as :class:`~repro.obda.sql.table.Stamped` records and
refreshed by :func:`~repro.obda.sql.table.refresh`, the routine that
keeps cached answers and consistency checks too; each provider supplies
only its full run (a pull, a derivation) and its extension (a delta).

Conjunctive queries are evaluated by a **compiled join**: the query's
variables are numbered into slots and each atom becomes one probe step
of a plan fixed before the first row is read.  The next step is always
the connected atom with the smallest estimated fan-out, its extent size
over the number of keys of the index it would probe.  Indexes hash an
extent by the string forms of the cells at the step's key positions
(constants and slots bound by earlier steps, any number of them).  They
are the extent's table indexes
(:meth:`~repro.obda.sql.table.Table.index`): built lazily, kept per key
positions with the stamp of the rows they hold, and extended by
appended rows, copy-on-write, instead of rebuilt.  Building and
extending poll the budget and install the index only on completion, so
a timeout never leaves a partial index behind.  A slot is bound only
when something reads it, and a step that binds none stops at its first
match (a semi-join).

The same join runs the SQL path (:func:`evaluate_table_cqs`): each
unfolded part is a union of conjunctive queries over the source tables
(:mod:`repro.obda.sql.tablecq`), whose atoms have one argument per
table column, may repeat a variable at any position, and carry ``!=``
checks, each run on the step that binds the later of its two sides.
Their steps probe the tables' own indexes
(:meth:`~repro.obda.sql.table.Table.index`).

Both entries into the join can run it over a delta
(``evaluate_ucq(grown=...)``, ``evaluate_table_cqs(grown=...)``): when
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

import threading
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    KeysView,
    List,
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
from .sql.table import Extent, Index, Stamp, Stamped, Table, grown_index, refresh

__all__ = [
    "ExtentProvider",
    "ABoxExtents",
    "MappingExtents",
    "DatalogExtents",
    "evaluate_cq",
    "evaluate_table_cqs",
    "evaluate_ucq",
]

#: per ``(predicate, arity)`` read, the table and its stamp at the first
#: read, before any of its rows was
Started = Dict[Tuple[str, int], Tuple[Extent, Stamp]]


class ExtentProvider:
    """Serves each predicate's extent (1- or 2-tuples) as a table.

    A subclass implements :meth:`table`, or else :meth:`extent` and
    :meth:`generation`: the default :meth:`table` then keeps one table
    per generation, built from :meth:`extent`.  :meth:`extent` otherwise
    reads the table, and a join probes the indexes of the table it read
    (:meth:`~repro.obda.sql.table.Table.index`).

    Concurrency: a served table only grows, by rows appended in one step
    under its lock after they were computed; a table that changed
    otherwise is replaced by a new one.  A join iterates the live row
    list, and the stamps taken before and after it bracket what it may
    have read.  Indexes are copy-on-write (the table's own).
    Bookkeeping happens under a small per-provider lock created on
    demand; pulls, derivations and index builds run outside it, so slow
    ones don't serialize unrelated queries.
    """

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        """*predicate*'s rows, as a set of the caller's own."""
        return self.table(predicate, arity).members()

    def table(self, predicate: str, arity: int) -> Extent:
        """*predicate*'s extent as a table of distinct rows.

        The default keeps one table per predicate and :meth:`generation`,
        read before the extent: a concurrent change can leave the
        generation behind the rows, never ahead of them.  A moved
        generation replaces every table.
        """
        generation = self.generation()
        key = (predicate, arity)
        with self._sync_lock():
            tables = self.__dict__.get("_tables")
            if tables is None or tables[0] != generation:
                tables = self._tables = (generation, {})
            table = tables[1].get(key)
        if table is None:
            table = Extent(predicate, self.extent(predicate, arity))
            with self._sync_lock():
                table = tables[1].setdefault(key, table)
        return table

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
        """Drop every table served, with its indexes."""
        with self._sync_lock():
            self._tables = None


class ABoxExtents(ExtentProvider):
    """Extents drawn from an explicit ABox: one table per predicate and
    ABox generation, which any successful ``add`` moves."""

    def __init__(self, abox: ABox):
        self.abox = abox

    def generation(self) -> int:
        return getattr(self.abox, "generation", 0)

    def extent(self, predicate: str, arity: int) -> Set[Tuple]:
        if arity == 1:
            return {
                (individual,)
                for individual in self.abox.concept_instances(AtomicConcept(predicate))
            }
        extent = set(self.abox.role_pairs(AtomicRole(predicate)))
        extent |= self.abox.attribute_pairs(AtomicAttribute(predicate))
        return extent


class _StampedTables(ExtentProvider):
    """A provider whose extents are computed from other tables: one
    table per ``(predicate, arity)``, a concept and a role sharing a
    name apart, kept as a :class:`~repro.obda.sql.table.Stamped` record
    of the tables it was computed from."""

    def __init__(self):
        self._cache: Dict[Tuple[str, int], Stamped] = {}

    def invalidate(self) -> None:
        with self._sync_lock():
            # Copy-on-write: readers holding the old dict keep a snapshot.
            self._cache = {}

    def _refreshed(self, key, cache, entry, generation, lookup, full, extend) -> Extent:
        """*entry*, read from *cache* for *key*, brought up to
        *generation* by :func:`~repro.obda.sql.table.refresh`.  An
        extent grows whatever the number of rows appended: it keeps its
        table, so what was read from it can still be extended.  The
        result is installed over *entry* unless the slot moved on; a
        table a racing refresh installed for the same generation is
        served instead, so every caller sees one table."""
        fresh, _ = refresh(entry, generation, lookup, full, extend, always_extend=True)
        with self._sync_lock():
            if self._cache is cache:
                current = cache.get(key)
                if current is entry:
                    cache[key] = fresh
                elif current is not None and current.generation == generation:
                    return current.value
        return fresh.value


class MappingExtents(_StampedTables):
    """Extents unfolded through the mappings from the source database.

    A predicate's extent is the answer set of its atom query ``q(x[,
    y]) :- P(x[, y])``, unfolded through the mappings once per mapping
    collection (:meth:`MappingCollection.atom_unfolding`) and run by the
    compiled join over the tables' indexes
    (:meth:`~repro.obda.rewriting.unfolding.UnfoldedQuery.join`).

    The cache is shared **across queries** and keeps each extent with
    the tables its join read and their stamps
    (:meth:`~repro.obda.sql.table.Table.stamp`).  While
    :attr:`Database.generation` holds, checking validity is one integer
    compare.  When it moves, an extent whose tables gained no rows is
    confirmed as it is, and only extents read from a written table are
    refreshed:

    * by a **delta** when every table it read only grew: the extent's
      table gains, in place, the answers of the join that read an
      appended row (the delta rule of :func:`evaluate_table_cqs`),
      whatever the shape of the mapping sources: a scan, a join, a
      UNION, a self-join or several assertions;
    * by a full **pull** into a new table otherwise (a table replaced,
      or one that lost or replaced rows out of band), and on first use.

    :meth:`invalidate` drops every extent and index, for out-of-band
    edits no stamp can see (rows rewritten in place, a mapping
    collection edited).
    """

    def __init__(self, mappings: MappingCollection, database: Database):
        super().__init__()
        self.mappings = mappings
        self.database = database
        #: full pulls through the mappings (first use, or a refresh that
        #: could not take a delta); the regression tests and
        #: ``cache_stats()["extents"]`` read this.
        self.pulls = 0
        #: refreshes that joined the mapping sources over appended rows
        self.delta_pulls = 0

    def generation(self) -> int:
        return self.database.generation

    def table(self, predicate: str, arity: int) -> Extent:
        key = (predicate, arity)
        generation = self.database.generation
        cache = self._cache
        entry = cache.get(key)
        if entry is not None and entry.generation == generation:
            return entry.value
        database = self.database

        def pull(started: Dict[str, Tuple[Table, Stamp]]) -> Extent:
            with current_tracer().span("extent-pull") as span:
                rows = self.mappings.atom_unfolding(*key).join(database, read=started)
                table = Extent(predicate, rows)
                span.annotate(predicate=predicate, rows=len(rows))
            global_metrics().counter("obda.extents.pulls").inc()
            with self._sync_lock():
                self.pulls += 1
            return table

        def delta(table: Extent, grown, started) -> Extent:
            with current_tracer().span("extent-delta") as span:
                joined = self.mappings.atom_unfolding(*key).join(database, grown=grown)
                added = table.extend(joined)
                span.annotate(predicate=predicate, rows=len(added))
            global_metrics().counter("obda.extents.delta_pulls").inc()
            with self._sync_lock():
                self.delta_pulls += 1
            return table

        return self._refreshed(key, cache, entry, generation, database.table, pull, delta)


class DatalogExtents(_StampedTables):
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
    predicate's table, with no copy.  Any other derived extent is a
    table of its own, kept with the stamps of the base tables it was
    derived from, checked only when the base provider's generation
    moves, as a mapped extent is.  While those tables only grew, it
    grows in place by the rules' projections of the rows they appended
    since (a derived delta), so its indexes are extended too; a base
    table that changed otherwise makes it derive again.  Base
    predicates, tables and indexes alike, come from the base provider,
    so every query shares their indexes.
    """

    def __init__(self, rewriting, base: ExtentProvider):
        super().__init__()
        self.rewriting = rewriting
        self.base = base
        #: (predicate, arity) -> the base predicate serving it (itself
        #: for a base predicate, the body of its one identity rule for an
        #: alias), or None for a derived one; filled on first use
        self._served: Dict[Tuple[str, int], Optional[str]] = {}

    def generation(self) -> int:
        return self.base.generation()

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

    def table(self, predicate: str, arity: int) -> Extent:
        served_by = self._served_by(predicate, arity)
        if served_by is not None:
            return self.base.table(served_by, arity)
        key = (predicate, arity)
        generation = self.base.generation()
        cache = self._cache
        entry = cache.get(key)
        if entry is not None and entry.generation == generation:
            return entry.value
        rules = self.rewriting.rules_for(predicate, arity)

        def derive(started: Started) -> Extent:
            for rule in rules:
                body = (rule.body[0].predicate, len(rule.body[0].args))
                if body not in started:
                    base = self.base.table(*body)
                    started[body] = (base, base.stamp())
            rows_of = {body: read[0].members() for body, read in started.items()}
            table = Extent(predicate, _derive(rules, rows_of))
            global_metrics().counter("obda.evaluation.derivations").inc()
            return table

        def delta(table: Extent, grown, started) -> Extent:
            table.extend(_derive(rules, grown))
            global_metrics().counter("obda.evaluation.derived_deltas").inc()
            return table

        return self._refreshed(
            key, cache, entry, generation, lambda body: self.base.table(*body), derive, delta
        )


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
    read: Started,
    grown: Optional[Dict[Tuple[str, int], Sequence[Tuple]]] = None,
) -> Set[Tuple]:
    """:func:`evaluate_cq` with the tracer looked up, or None when it is
    disabled, reading the extents' tables through *read*; with *grown*,
    as :func:`evaluate_ucq` evaluates one disjunct over a delta.  Each
    step probes the index of the table whose rows it reads."""
    if budget is not None:
        budget.check()
    atoms = cq.atoms
    keys = [(atom.predicate, len(atom.args)) for atom in atoms]
    seeds = None
    if grown is not None:
        seeds = [(i, grown[key]) for i, key in enumerate(keys) if key in grown]
        if not seeds:
            return set()  # nothing it reads grew
    tables = []
    for key in keys:
        started = read.get(key)
        if started is None:
            table = extents.table(*key)
            started = read[key] = (table, table.stamp())
        tables.append(started[0])
    rows_of = [table.rows for table in tables]
    if tracer is None and not all(rows_of):
        return set()  # before the query is shaped: many disjuncts end here

    def index_of(i: int, positions: Tuple[int, ...]) -> Index:
        return tables[i].index(positions, budget)

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
    grown table is skipped.  The CQs hold no parameter: a caller binds
    a template's first (:meth:`~repro.obda.sql.tablecq.Binding.bind`).
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

        query = cq[1:6]  # the table names lead, then the query
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
    Each predicate's table is looked up once, and a step probes that
    table's own index (:meth:`~repro.obda.sql.table.Table.index`), so
    indexes persist across queries with the same probe shape instead of
    being rebuilt per evaluation.  With a tracer installed, the
    evaluation is a ``join`` span annotated with the plan and the answer
    count.

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
    read: Optional[Started] = None,
    grown: Optional[Dict[Tuple[str, int], Sequence[Tuple]]] = None,
) -> Set[Tuple]:
    """Certain-answer union over all disjuncts (budget polled per disjunct).

    Each predicate's table is looked up once, so every disjunct reads
    the same table and probes that table's indexes.  The tables are
    read through *read* (``(predicate, arity)`` -> table and start
    stamp): the table held there, or one looked up in *extents* once and
    added with its stamp before any of its rows was read, so that
    afterwards *read* holds what the answers were computed from (stamp
    it after them with :func:`~repro.obda.sql.table.ended`).  The tracer
    is looked up once: under the NullTracer no disjunct opens a span or
    computes its annotations.

    With *grown* (``(predicate, arity)`` -> the rows its table in *read*
    appended since earlier answers were computed), only the answers
    that read an added row: per disjunct, one join per atom over a
    grown predicate, that atom reading the added rows alone (the delta
    rule of :func:`_run`).  A disjunct over no grown predicate is
    skipped.  Together with the earlier answers, these are the answers
    over the tables in *read*.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        tracer = None
    if read is None:
        read = {}
    answers: Set[Tuple] = set()
    for disjunct in ucq:
        if budget is not None:
            budget.check()
        answers |= _evaluate(disjunct, extents, budget, tracer, read, grown)
    return answers
