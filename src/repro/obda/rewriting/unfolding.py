"""Unfolding: compile a rewritten UCQ through the mappings into SQL algebra.

This is the last step of the OBDA query-answering pipeline (rewrite,
then unfold, then evaluate at the sources).  For each disjunct and each
choice of one mapping assertion per atom, the unfolder builds a join of
the (renamed) source queries:

* a join variable shared by two atoms must be produced by **structurally
  identical IRI templates** — then the join condition equates the
  corresponding placeholder columns; combinations with incompatible
  templates denote disjoint IRI spaces and are pruned (the standard
  template-matching optimization of OBDA systems);
* a constant in an atom is parsed against the template and becomes a
  selection on the extracted placeholder columns;
* answer variables are projected as their placeholder columns, and the
  :class:`UnfoldedQuery` re-applies the templates row-wise to assemble
  the final :class:`~repro.dllite.abox.Individual` answers (a template
  without placeholders renders its one IRI from no column).

Unfolded with *parameters* (the string forms of a query's constants, in
the order of its template's parameters), a constant is not read at all:
it becomes a :class:`~repro.obda.sql.tablecq.Parameter` per placeholder
of the template it meets (one that the template cannot parse out of a
call's constant binds nothing, so its table CQ has no row), an equality
of its string form with the text of a template without placeholders,
or one parameter for a raw value column.  No part is pruned for a
parameter's value, so the unfolding serves every query of the template,
each call binding its own constants
(:class:`~repro.obda.sql.tablecq.Binding`).

:meth:`UnfoldedQuery.converted` reads each part as conjunctive queries
over the tables (:mod:`repro.obda.sql.tablecq`), which
:meth:`UnfoldedQuery.join` runs through the compiled join of
:mod:`repro.obda.evaluation`, probing the tables' hash indexes, and
:class:`~repro.obda.sql.backends.SqliteBackend` renders as SQL;
:meth:`UnfoldedQuery.execute` evaluates the algebra as it is written,
with no index kept between calls, and is the reference the tests check
both against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...errors import MappingError
from ...runtime.budget import Budget
from ..evaluation import evaluate_table_cqs
from ..mapping import IriTemplate, MappingCollection, read_terms
from ..queries import ConjunctiveQuery, Constant, UnionQuery, Variable
from ..sql.algebra import (
    Condition,
    Const,
    Expression,
    Join,
    Projection,
    Rename,
    ResultSet,
    Selection,
    evaluate,
    scans,
)
from ..sql.database import Database
from ..sql.table import Stamp, Table
from ..sql.tablecq import Binding, Parameter, table_cqs

__all__ = ["UnfoldedQuery", "answer_rows", "unfold"]


@dataclass
class _VarSource:
    """Where one query variable comes from in the joined source tree."""

    template: Optional[IriTemplate]  # None for raw value columns
    columns: Tuple[str, ...]  # prefixed placeholder columns, in pattern order


def answer_rows(
    result: ResultSet, recipes: Sequence[_VarSource], budget: Optional[Budget] = None
) -> Iterator[Tuple]:
    """The answer tuple of each row of one unfolded part's *result*; a
    boolean part (no recipes) yields ``()`` per row."""
    readers = [
        (recipe.template, [result.column_index(column) for column in recipe.columns])
        for recipe in recipes
    ]
    return read_terms(result.rows, readers, budget)


class UnfoldedQuery:
    """A union of algebra parts plus per-part answer assembly recipes.

    An unfolding with *parameters* (their count) holds
    :class:`~repro.obda.sql.tablecq.Parameter`\\ s in place of its
    constants; it runs only through :meth:`join` and the sqlite backend,
    each call binding its constants.  Its algebra, read by
    :meth:`execute` and :meth:`sql`, keeps the parameters."""

    def __init__(
        self,
        parts: Sequence[Tuple[Expression, Tuple[_VarSource, ...]]],
        arity: int,
        sources: Optional[Dict[int, tuple]] = None,
        parameters: int = 0,
    ):
        self.parts = list(parts)
        self.arity = arity
        self.parameters = parameters
        #: the mapping collection's converted sources, shared by every
        #: unfolding over it (see :func:`~repro.obda.sql.tablecq.table_cqs`)
        self._sources = sources
        #: per part, the tables it scans and its conversions, keyed by
        #: those tables' columns; built by the first :meth:`converted`
        self._conversions: Optional[
            List[Tuple[Tuple[str, ...], Dict[Tuple, Tuple[list, list]]]]
        ] = None

    @property
    def size(self) -> int:
        return len(self.parts)

    def sql(self) -> str:
        """The generated SQL, one SELECT per part joined by UNION.

        This is the text an OBDA system would ship to the source DBMS —
        the paper's "directly translatable into SQL" made visible.
        """
        from ..sql.render import algebra_to_sql

        if not self.parts:
            return "-- empty rewriting: no mapping matches the query"
        return "\nUNION\n".join(
            algebra_to_sql(expression) for expression, _ in self.parts
        )

    def execute(
        self, database: Database, budget: Optional[Budget] = None
    ) -> Set[Tuple]:
        """The answers by the algebra evaluator, part by part."""
        answers: Set[Tuple] = set()
        for expression, recipes in self.parts:
            if budget is not None:
                budget.check()
            result = evaluate(expression, database, budget=budget)
            answers.update(answer_rows(result, recipes, budget))
        return answers

    def converted(
        self,
        lookup: Callable[[str], Table],
        budget: Optional[Budget] = None,
        grown: Optional[Dict[str, Sequence[Tuple]]] = None,
    ) -> Iterator[Tuple[Dict[str, Table], list, list]]:
        """Per part, in order: the tables it scans by name, each looked up
        by *lookup*, and the part's table CQs
        (:func:`~repro.obda.sql.tablecq.table_cqs`) and answer readers
        for those tables' columns.  A part is converted on first use, and
        again only for tables with other columns.  A reader is
        ``(template, positions)`` over a CQ's output columns, as
        :func:`~repro.obda.mapping.read_terms` takes it; a boolean part
        has none, and its CQs output nothing; a template without
        placeholders reads no position.  With *grown*, a part that scans
        no grown table is skipped.  The budget is polled per part and
        per branch converted.  The CQs of a parameterized unfolding hold
        its parameters, for the caller to bind.
        """
        parts = self._conversions
        if parts is None:
            parts = self._conversions = [
                (tuple(dict.fromkeys(scan.table for scan in scans(expression))), {})
                for expression, _ in self.parts
            ]
        for (expression, recipes), (names, conversions) in zip(self.parts, parts):
            if grown is not None and grown.keys().isdisjoint(names):
                continue
            if budget is not None:
                budget.check()
            tables = {name: lookup(name) for name in names}
            columns = tuple([table.columns for table in tables.values()])
            converted = conversions.get(columns)
            if converted is None:
                converted = conversions[columns] = _compile_part(
                    expression, recipes, tables, budget, self._sources
                )
            yield tables, converted[0], converted[1]

    def join(
        self,
        database: Database,
        budget: Optional[Budget] = None,
        grown: Optional[Dict[str, Sequence[Tuple]]] = None,
        read: Optional[Dict[str, Tuple[Table, Stamp]]] = None,
        constants: Optional[Sequence[str]] = None,
    ) -> Set[Tuple]:
        """The answers by the compiled join over the tables' indexes.

        Each part's tables are looked up through *database*, so retry and
        fault wrappers apply, and the part runs as its table CQs
        (:meth:`converted`).  A part's output rows are one per identity
        (:func:`~repro.obda.evaluation.evaluate_table_cqs`) before its
        templates render them, so ``1`` and ``1.0`` render two IRIs.
        Answers are added part by part, each part's in the order the join
        finds them, so among answers equal under ``==`` the set keeps the
        first found.  The budget is polled per part, per branch converted
        and per binding.

        With *grown* (table name -> the rows appended to it since earlier
        answers were computed), only the answers that read an appended
        row, by the delta rule of
        :func:`~repro.obda.evaluation.evaluate_table_cqs`; a part that
        scans no grown table is skipped.  Together with the earlier
        answers, these are the answers over the grown tables.  *read*,
        when given, gains each table the join looks up, with its stamp
        (:meth:`~repro.obda.sql.table.Table.stamp`) at the first lookup:
        before the join read any of its rows.

        A parameterized unfolding joins with the string forms of the
        call's *constants* bound in (:meth:`Binding.bind
        <repro.obda.sql.tablecq.Binding.bind>`), each ``(parameter,
        template)`` pair parsed once; a table CQ with no row in this call
        is skipped.
        """
        binding = None
        if self.parameters:
            if constants is None:
                raise ValueError("a parameterized unfolding joins with constants")
            binding = Binding(constants)
        answers: Set[Tuple] = set()
        for tables, cqs, readers in self.converted(database.table, budget, grown):
            if binding is not None:
                cqs = [cq for cq in map(binding.bind, cqs) if cq is not None]
            if read is not None:
                for name, table in tables.items():
                    if name not in read:
                        read[name] = (table, table.stamp())
            rows = evaluate_table_cqs(cqs, tables, budget, grown)
            answers.update(read_terms([row for _, row in rows], readers, budget))
        return answers


def _compile_part(
    expression: Expression, recipes, tables, budget: Optional[Budget], sources
) -> Tuple[list, list]:
    """*expression*'s table CQs over *tables* (by name), and the reader
    of each recipe: its template and output positions.  A part whose
    recipes read no column (a boolean part, or templates without
    placeholders) outputs none."""
    columns, cqs = table_cqs(
        expression,
        tables.__getitem__,
        any([recipe.columns for recipe in recipes]),
        budget,
        sources,
    )
    output = ResultSet(columns, [])
    readers = [
        (recipe.template, [output.column_index(column) for column in recipe.columns])
        for recipe in recipes
    ]
    return cqs, readers


def unfold(
    ucq: UnionQuery,
    mappings: MappingCollection,
    budget: Optional[Budget] = None,
    parameters: Optional[Sequence[str]] = None,
) -> UnfoldedQuery:
    """Compile *ucq* into source-level algebra through *mappings*.

    With *parameters*, the string forms of *ucq*'s constants in parameter
    order, each constant becomes its parameter (see the module
    docstring), and the unfolding serves every query whose constants
    take those places.  The per-disjunct mapping-combination product is
    worst-case exponential in query length, so it polls the *budget*
    too.
    """
    numbered = {key: index for index, key in enumerate(parameters or ())}
    parts: List[Tuple[Expression, Tuple[_VarSource, ...]]] = []
    counter = itertools.count()
    for disjunct in ucq:
        if budget is not None:
            budget.check()
        options = []
        for atom in disjunct.atoms:
            pairs = mappings._by_predicate.get((atom.predicate, len(atom.args)), [])
            if not pairs:
                options = None
                break
            options.append([(atom, assertion, target) for assertion, target in pairs])
        if options is None:
            continue
        for combination in itertools.product(*options):
            if budget is not None:
                budget.tick(stride=64)
            part = _unfold_combination(disjunct, combination, counter, numbered)
            if part is not None:
                parts.append(part)
    return UnfoldedQuery(parts, ucq.arity, mappings._sources, len(numbered))


def _unfold_combination(
    disjunct: ConjunctiveQuery, combination, counter, parameters: Dict[str, int]
):
    """One part: ``(expression, recipes)``, or None when the
    combination cannot produce a row (incompatible templates, or a
    literal constant no template of it renders)."""
    expression: Optional[Expression] = None
    conditions: List[Condition] = []
    var_sources: Dict[Variable, _VarSource] = {}

    for atom, assertion, target in combination:
        prefix = f"m{next(counter)}"
        renamed = Rename(assertion.source, prefix)
        expression = renamed if expression is None else Join(expression, renamed, on=())
        for term, mapping_term in zip(atom.args, target.terms):
            if isinstance(mapping_term, IriTemplate):
                columns = tuple(
                    f"{prefix}.{placeholder}"
                    for placeholder in mapping_term.placeholders
                )
                source = _VarSource(mapping_term, columns)
            else:
                source = _VarSource(None, (f"{prefix}.{mapping_term.column}",))
            if isinstance(term, Constant):
                index = parameters.get(term.key)
                if index is not None:
                    # never pruned for its value: another call binds another
                    template = source.template
                    if template is not None and not source.columns:
                        # a template without placeholders renders its text
                        raw = Const(Parameter(index, None, 0))
                        conditions.append(Condition(raw, Const(template.pattern), "="))
                    for position, column in enumerate(source.columns):
                        parameter = Parameter(index, template, position)
                        conditions.append(Condition(column, Const(parameter), "="))
                elif source.template is None:
                    conditions.append(
                        Condition(source.columns[0], Const(term.value), "=")
                    )
                else:
                    extracted = source.template.parse(term.key)
                    if extracted is None:
                        return None  # constant cannot come from this template
                    for column, value in zip(source.columns, extracted):
                        conditions.append(Condition(column, Const(value), "="))
                continue
            existing = var_sources.get(term)
            if existing is None:
                var_sources[term] = source
            else:
                # a value column (no template, no skeleton) joins values only
                if getattr(existing.template, "skeleton", None) != getattr(
                    source.template, "skeleton", None
                ):
                    return None  # incompatible IRI spaces never join
                if len(existing.columns) != len(source.columns):
                    return None
                for left, right in zip(existing.columns, source.columns):
                    conditions.append(Condition(left, right, "="))

    if expression is None:
        return None
    if conditions:
        expression = Selection(expression, tuple(conditions))

    recipes: List[_VarSource] = []
    output_columns: List[str] = []
    output_names: List[str] = []
    for variable in disjunct.answer_vars:
        source = var_sources.get(variable)
        if source is None:
            raise MappingError(
                f"answer variable {variable} not produced by any mapping target"
            )
        local_columns = []
        for column in source.columns:
            name = f"c{len(output_names)}"
            output_columns.append(column)
            output_names.append(name)
            local_columns.append(name)
        recipes.append(_VarSource(source.template, tuple(local_columns)))
    # Without output columns (a boolean disjunct, or answer variables
    # produced only by templates without placeholders) the raw expression
    # is kept: only the presence of a row matters.
    if output_columns:
        expression = Projection(
            expression, tuple(output_columns), tuple(output_names), distinct=True
        )
    return expression, tuple(recipes)


def certain_answers_via_sql(
    ucq: UnionQuery,
    mappings: MappingCollection,
    database: Database,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """Convenience: unfold and execute in one call."""
    return unfold(ucq, mappings, budget=budget).execute(database, budget=budget)
