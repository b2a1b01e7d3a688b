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
  the final :class:`~repro.dllite.abox.Individual` answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...errors import MappingError
from ...runtime.budget import Budget
from ..mapping import IriTemplate, MappingCollection, read_terms
from ..queries import Atom, Constant, ConjunctiveQuery, UnionQuery, Variable
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
)
from ..sql.database import Database

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
    """A union of algebra parts plus per-part answer assembly recipes."""

    def __init__(
        self,
        parts: Sequence[Tuple[Expression, Tuple[_VarSource, ...]]],
        arity: int,
    ):
        self.parts = list(parts)
        self.arity = arity

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
        answers: Set[Tuple] = set()
        for expression, recipes in self.parts:
            if budget is not None:
                budget.check()
            result = evaluate(expression, database, budget=budget)
            answers.update(answer_rows(result, recipes, budget))
        return answers


def unfold(
    ucq: UnionQuery,
    mappings: MappingCollection,
    budget: Optional[Budget] = None,
) -> UnfoldedQuery:
    """Compile *ucq* into source-level algebra through *mappings*.

    The per-disjunct mapping-combination product is worst-case
    exponential in query length, so it polls the *budget* too.
    """
    parts: List[Tuple[Expression, Tuple[_VarSource, ...]]] = []
    counter = itertools.count()
    for disjunct in ucq:
        if budget is not None:
            budget.check()
        options = []
        for atom in disjunct.atoms:
            pairs = mappings._by_predicate.get(atom.predicate, [])
            if not pairs:
                options = None
                break
            options.append([(atom, assertion, target) for assertion, target in pairs])
        if options is None:
            continue
        for combination in itertools.product(*options):
            if budget is not None:
                budget.tick(stride=64)
            part = _unfold_combination(disjunct, combination, counter)
            if part is not None:
                parts.append(part)
    return UnfoldedQuery(parts, ucq.arity)


def _unfold_combination(disjunct: ConjunctiveQuery, combination, counter):
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
                if source.template is None:
                    conditions.append(
                        Condition(source.columns[0], Const(term.value), "=")
                    )
                else:
                    extracted = source.template.parse(str(term.value))
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
    if output_columns:
        expression = Projection(
            expression, tuple(output_columns), tuple(output_names), distinct=True
        )
    else:
        # Boolean query: project the constant row presence by keeping the
        # raw expression; execute() will just check for any row.
        recipes = []
    return expression, tuple(recipes)


def certain_answers_via_sql(
    ucq: UnionQuery,
    mappings: MappingCollection,
    database: Database,
    budget: Optional[Budget] = None,
) -> Set[Tuple]:
    """Convenience: unfold and execute in one call."""
    return unfold(ucq, mappings, budget=budget).execute(database, budget=budget)
