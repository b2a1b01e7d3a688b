"""The OBDA mapping layer (paper §1: "an intermediate mapping layer
between the global schema and the data sources").

Mappings are GAV-style assertions ``source SQL query ⤳ target atoms``:
each row produced by the source query instantiates every target atom,
with IRI templates (``"person/{id}"``) building ontology individuals out
of source keys, and plain value columns feeding attribute values.

Example::

    m1: SELECT pid, dept FROM employees WHERE role = 'prof'
        ⤳ Professor(person/{pid}), worksFor(person/{pid}, dept/{dept})

The mapped data is read at two granularities:

* :meth:`MappingCollection.materialize` — the full virtual ABox;
* the extent of one predicate.  The query path reads it as the answers
  of the predicate's atom query, unfolded once per collection
  (:meth:`MappingCollection.atom_unfolding`) and joined over the
  tables' indexes (:class:`~repro.obda.evaluation.MappingExtents`);
  :meth:`MappingCollection.predicate_extent` evaluates each source as
  written, with no index kept, and is the reference the tests check
  those extents against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..dllite.abox import (
    ABox,
    AttributeAssertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..errors import MappingError
from ..runtime.budget import Budget
from .queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from .sql.algebra import Expression, ResultSet, evaluate
from .sql.database import Database
from .sql.sqlparser import parse_sql

__all__ = [
    "IriTemplate",
    "ValueColumn",
    "read_terms",
    "TargetAtom",
    "MappingAssertion",
    "MappingCollection",
]

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_X = Variable("x")
_Y = Variable("y")


@lru_cache(maxsize=1024)
def _segments(pattern: str) -> Tuple[str, ...]:
    """*pattern* split once: literal text at even positions, placeholder
    columns at odd ones (every source row applies its templates)."""
    return tuple(_PLACEHOLDER_RE.split(pattern))


@lru_cache(maxsize=1024)
def _parser(pattern: str) -> "re.Pattern":
    """Matches what *pattern* renders, one greedy group per placeholder
    (``DOTALL``: a value may hold a newline)."""
    literals = _segments(pattern)[0::2]
    return re.compile("(.*)".join(map(re.escape, literals)), re.DOTALL)


@dataclass(frozen=True)
class IriTemplate:
    """An individual-building template, e.g. ``person/{pid}``."""

    pattern: str

    @property
    def placeholders(self) -> Tuple[str, ...]:
        return _segments(self.pattern)[1::2]

    @property
    def skeleton(self) -> str:
        """The pattern with its placeholder names erased (``a/{}/{}``);
        the unfolder joins two templates only when their skeletons match."""
        return "{}".join(_segments(self.pattern)[0::2])

    def render(self, values: Sequence[object]) -> Individual:
        """The individual named by the placeholder *values*, given in
        pattern order.  Literal text and values alternate as the pattern
        has them, so a value that reads like a placeholder stays a value."""
        segments = _segments(self.pattern)
        text = segments[0]
        for index, value in enumerate(values, 1):
            text += str(value) + segments[2 * index]
        return Individual(text)

    def parse(self, text: str) -> Optional[Tuple[str, ...]]:
        """Placeholder values, in pattern order, that render *text*, or
        None when the template cannot produce it.  The groups are greedy:
        when a value may contain the literal between two placeholders,
        only one of the possible splits is returned (a known gap, see
        ROADMAP: non-injective templates)."""
        match = _parser(self.pattern).fullmatch(text)
        return match.groups() if match else None

    def values(self, env: Dict[str, object]) -> List[object]:
        """*env*'s entries for the placeholder columns, in pattern order."""
        try:
            return [env[column] for column in self.placeholders]
        except KeyError as error:
            raise MappingError(
                f"template {self.pattern!r} needs column {error.args[0]!r}, "
                f"source query produced {sorted(env)}"
            ) from None

    def apply(self, env: Dict[str, object]) -> Individual:
        return self.render(self.values(env))

    def __str__(self) -> str:
        return self.pattern


@dataclass(frozen=True)
class ValueColumn:
    """A raw source column used as an attribute value."""

    column: str

    def values(self, env: Dict[str, object]) -> List[object]:
        """*env*'s entry for the column, as the one value."""
        if self.column not in env:
            raise MappingError(
                f"value column {self.column!r} missing from source output "
                f"{sorted(env)}"
            )
        return [env[self.column]]

    def apply(self, env: Dict[str, object]):
        return self.values(env)[0]

    def __str__(self) -> str:
        return f"{{{self.column}}}"


TargetTerm = Union[IriTemplate, ValueColumn]


def read_terms(
    rows: Iterable[Sequence],
    readers: Sequence[Tuple[Optional[IriTemplate], Sequence[int]]],
    budget: Optional[Budget] = None,
) -> Iterator[Tuple]:
    """One tuple of terms per row.  Each reader ``(template, positions)``
    renders its template over the cells at *positions*; without a
    template (a raw value column) it takes the cell at its one position."""
    for row in rows:
        if budget is not None:
            budget.tick()
        yield tuple(
            [
                row[positions[0]]
                if template is None
                else template.render([row[i] for i in positions])
                for template, positions in readers
            ]
        )


@dataclass(frozen=True)
class TargetAtom:
    """One atom of a mapping head: predicate plus template terms."""

    predicate: Union[AtomicConcept, AtomicRole, AtomicAttribute]
    terms: Tuple[TargetTerm, ...]

    def __post_init__(self):
        expected = 1 if isinstance(self.predicate, AtomicConcept) else 2
        if len(self.terms) != expected:
            raise MappingError(
                f"target atom {self.predicate} expects {expected} term(s), "
                f"got {len(self.terms)}"
            )
        if isinstance(self.predicate, (AtomicConcept, AtomicRole)):
            for term in self.terms:
                if isinstance(term, ValueColumn):
                    raise MappingError(
                        f"{self.predicate} positions must be IRI templates, "
                        f"not raw columns"
                    )
        if isinstance(self.predicate, AtomicAttribute) and not isinstance(
            self.terms[0], IriTemplate
        ):
            raise MappingError("an attribute subject must be an IRI template")

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(map(str, self.terms))})"


class MappingAssertion:
    """``source query ⤳ target atoms`` (the source may be SQL text or algebra)."""

    def __init__(
        self,
        source: Union[str, Expression],
        targets: Sequence[TargetAtom],
        identifier: str = "",
    ):
        self.identifier = identifier
        self.source_text = source if isinstance(source, str) else None
        self.source: Expression = parse_sql(source) if isinstance(source, str) else source
        self.targets: Tuple[TargetAtom, ...] = tuple(targets)
        if not self.targets:
            raise MappingError("a mapping assertion needs at least one target atom")

    def evaluate_source(self, database: Database) -> ResultSet:
        return evaluate(self.source, database)

    def __repr__(self) -> str:
        label = self.identifier or "mapping"
        return f"<{label}: {len(self.targets)} targets>"


class MappingCollection:
    """All mapping assertions of one OBDA specification."""

    def __init__(self, assertions: Iterable[MappingAssertion] = ()):
        self.assertions: List[MappingAssertion] = []
        #: (predicate name, arity) -> the targets that map it: a concept
        #: and a role sharing a name are two predicates
        self._by_predicate: Dict[
            Tuple[str, int], List[Tuple[MappingAssertion, TargetAtom]]
        ] = {}
        #: (predicate, arity) -> its atom unfolding (see :meth:`atom_unfolding`)
        self._atom_unfoldings: Dict[Tuple[str, int], object] = {}
        #: the sources' table-CQ conversions, which every unfolding over
        #: the collection shares (see :func:`~repro.obda.sql.tablecq.table_cqs`)
        self._sources: Dict[int, tuple] = {}
        for assertion in assertions:
            self.add(assertion)

    def add(self, assertion: MappingAssertion) -> None:
        self.assertions.append(assertion)
        for target in assertion.targets:
            key = (target.predicate.name, len(target.terms))
            self._by_predicate.setdefault(key, []).append((assertion, target))
        self._atom_unfoldings = {}

    def __len__(self) -> int:
        return len(self.assertions)

    def __iter__(self):
        return iter(self.assertions)

    def mapped_predicates(self) -> Set[Tuple[str, int]]:
        """The ``(name, arity)`` of every mapped predicate: a concept and
        a role sharing a name are two predicates."""
        return set(self._by_predicate)

    # -- unfolding ---------------------------------------------------------------

    def atom_unfolding(self, predicate_name: str, arity: int):
        """The atom query ``q(x[, y]) :- P(x[, y])`` of *predicate_name*
        of *arity* unfolded through these mappings
        (:class:`~repro.obda.rewriting.unfolding.UnfoldedQuery`), whose
        answers are the predicate's extent.  Built on first use and kept
        until :meth:`add` changes the collection, so every extent
        provider over the collection shares it."""
        unfoldings = self._atom_unfoldings
        key = (predicate_name, arity)
        unfolded = unfoldings.get(key)
        if unfolded is None:
            from .rewriting.unfolding import unfold

            args = (_X, _Y)[:arity]
            query = ConjunctiveQuery(args, (Atom(predicate_name, args),))
            unfolded = unfoldings.setdefault(key, unfold(UnionQuery([query]), self))
        return unfolded

    def predicate_extent(
        self, database: Database, predicate_name: str, arity: int
    ) -> Set[Tuple]:
        """The virtual extent of one ontology predicate, *predicate_name*
        of *arity* (a concept and a role may share a name), over
        *database*: one tuple per row of each source feeding it, the
        source evaluated as written with no index kept.

        Concepts yield 1-tuples of :class:`Individual`; roles yield
        ``(Individual, Individual)`` pairs; attributes
        ``(Individual, value)`` pairs.  An unmapped predicate has an empty
        extent (standard OBDA semantics), not an error.
        """
        extent: Set[Tuple] = set()
        for assertion, target in self._by_predicate.get((predicate_name, arity), ()):
            result = assertion.evaluate_source(database)
            if not result.rows:
                continue
            # column name -> row position (the last of a repeated name
            # wins), plus the unqualified names when the source used aliases
            positions = {column: index for index, column in enumerate(result.columns)}
            for column, index in list(positions.items()):
                positions.setdefault(column.rsplit(".", 1)[-1], index)
            readers = [
                (term if isinstance(term, IriTemplate) else None, term.values(positions))
                for term in target.terms
            ]
            extent.update(read_terms(result.rows, readers))
        return extent

    def materialize(self, database: Database) -> ABox:
        """The full virtual ABox: every assertion's source evaluated as
        written, each row instantiating every target atom."""
        abox = ABox()
        for assertion in self.assertions:
            result = assertion.evaluate_source(database)
            for row in result.rows:
                env = dict(zip(result.columns, row))
                for column, value in list(env.items()):
                    env.setdefault(column.rsplit(".", 1)[-1], value)
                for target in assertion.targets:
                    values = tuple(term.apply(env) for term in target.terms)
                    if isinstance(target.predicate, AtomicConcept):
                        abox.add(ConceptAssertion(target.predicate, values[0]))
                    elif isinstance(target.predicate, AtomicRole):
                        abox.add(RoleAssertion(target.predicate, values[0], values[1]))
                    else:
                        abox.add(
                            AttributeAssertion(target.predicate, values[0], values[1])
                        )
        return abox
