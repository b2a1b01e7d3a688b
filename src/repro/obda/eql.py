"""EQL-Lite(UCQ): expressive queries under epistemic semantics.

The paper (§2) credits Mastro with "answering of expressive queries
(beyond conjunctive queries) under suitable semantic approximations",
citing the EQL-Lite approach: a first-order query language whose atoms
are *epistemic* — ``K q`` holds of a tuple iff the tuple is a **certain
answer** of the embedded UCQ ``q``.  Boolean structure (and/or/not) and
quantification are then evaluated over those answer relations, which
keeps the language tractable: each embedded UCQ is rewritten and
answered by the ordinary DL-Lite machinery, and the first-order shell is
plain relational evaluation.

Supported shell: conjunction (join), disjunction (same free variables),
*safe* negation (``EqlNot`` may only appear inside a conjunction that
binds all its variables positively — enforced at evaluation), and
existential projection.  This mirrors the domain-independent EQL-Lite
fragment.

Example — "students not known to attend any course"::

    student  = KAtom(parse_query("q(x) :- Student(x)"))
    attends  = KAtom(parse_query("q(x) :- attends(x, y)"))
    query    = EqlQuery([Variable("x")], EqlAnd(student, EqlNot(attends)))
    answers  = system.certain_answers_eql(query)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple, Union

from ..dllite.tbox import TBox
from ..errors import ReproError, UnknownPredicate
from .evaluation import ExtentProvider, evaluate_ucq
from .queries import ConjunctiveQuery, UnionQuery, Variable
from .rewriting.perfectref import perfect_ref

__all__ = [
    "KAtom",
    "EqlAnd",
    "EqlOr",
    "EqlNot",
    "EqlExists",
    "EqlQuery",
    "evaluate_eql",
]


class EqlExpression:
    """Base class of the first-order shell."""

    __slots__ = ()

    def free_variables(self) -> Tuple[Variable, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class KAtom(EqlExpression):
    """``K q`` — the certain answers of an embedded UCQ.

    The embedded query's answer variables are the atom's free variables.
    """

    query: UnionQuery

    def __init__(self, query: Union[UnionQuery, ConjunctiveQuery]):
        if isinstance(query, ConjunctiveQuery):
            query = UnionQuery([query], name=query.name)
        object.__setattr__(self, "query", query)

    def free_variables(self) -> Tuple[Variable, ...]:
        return self.query.disjuncts[0].answer_vars

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.free_variables())
        return f"K[{head}]({'; '.join(str(cq) for cq in self.query)})"


@dataclass(frozen=True)
class EqlAnd(EqlExpression):
    parts: Tuple[EqlExpression, ...]

    def __init__(self, *parts: EqlExpression):
        object.__setattr__(self, "parts", tuple(parts))

    def free_variables(self) -> Tuple[Variable, ...]:
        seen: List[Variable] = []
        for part in self.parts:
            for variable in part.free_variables():
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class EqlOr(EqlExpression):
    parts: Tuple[EqlExpression, ...]

    def __init__(self, *parts: EqlExpression):
        object.__setattr__(self, "parts", tuple(parts))

    def free_variables(self) -> Tuple[Variable, ...]:
        return self.parts[0].free_variables()

    def __str__(self) -> str:
        return "(" + " OR ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class EqlNot(EqlExpression):
    """Safe negation — legal only inside a conjunction covering its vars."""

    part: EqlExpression

    def free_variables(self) -> Tuple[Variable, ...]:
        return self.part.free_variables()

    def __str__(self) -> str:
        return f"NOT {self.part}"


@dataclass(frozen=True)
class EqlExists(EqlExpression):
    """Existential projection: drop *variables* from the sub-result."""

    variables: Tuple[Variable, ...]
    part: EqlExpression

    def __init__(self, variables: Sequence[Variable], part: EqlExpression):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "part", part)

    def free_variables(self) -> Tuple[Variable, ...]:
        return tuple(
            v for v in self.part.free_variables() if v not in self.variables
        )

    def __str__(self) -> str:
        bound = ", ".join(str(v) for v in self.variables)
        return f"EXISTS {bound}. {self.part}"


class EqlQuery:
    """An EQL-Lite query: answer variables + a first-order shell."""

    def __init__(self, answer_vars: Sequence[Variable], expression: EqlExpression):
        self.answer_vars = tuple(answer_vars)
        self.expression = expression
        free = expression.free_variables()
        missing = [v for v in self.answer_vars if v not in free]
        if missing:
            raise UnknownPredicate(
                f"answer variables {[str(v) for v in missing]} are not free in "
                f"the query body"
            )

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.answer_vars)
        return f"q({head}) := {self.expression}"


@dataclass
class _Relation:
    """An intermediate result: a set of tuples over named columns."""

    columns: Tuple[Variable, ...]
    rows: Set[Tuple]

    def project(self, columns: Sequence[Variable]) -> "_Relation":
        indices = [self.columns.index(c) for c in columns]
        return _Relation(
            tuple(columns), {tuple(row[i] for i in indices) for row in self.rows}
        )


def _join(left: _Relation, right: _Relation) -> _Relation:
    shared = [c for c in right.columns if c in left.columns]
    extra = [c for c in right.columns if c not in left.columns]
    left_key = [left.columns.index(c) for c in shared]
    right_key = [right.columns.index(c) for c in shared]
    extra_idx = [right.columns.index(c) for c in extra]
    index: Dict[Tuple, List[Tuple]] = {}
    for row in right.rows:
        index.setdefault(tuple(row[i] for i in right_key), []).append(row)
    rows: Set[Tuple] = set()
    for row in left.rows:
        key = tuple(row[i] for i in left_key)
        for match in index.get(key, ()):
            rows.add(row + tuple(match[i] for i in extra_idx))
    return _Relation(left.columns + tuple(extra), rows)


def _evaluate(
    expression: EqlExpression,
    answer_of,
) -> _Relation:
    if isinstance(expression, KAtom):
        columns = expression.free_variables()
        return _Relation(columns, answer_of(expression))
    if isinstance(expression, EqlAnd):
        positives = [p for p in expression.parts if not isinstance(p, EqlNot)]
        negatives = [p for p in expression.parts if isinstance(p, EqlNot)]
        if not positives:
            raise ReproError(
                "unsafe EQL expression: a conjunction needs at least one "
                "positive conjunct"
            )
        result = _evaluate(positives[0], answer_of)
        for part in positives[1:]:
            result = _join(result, _evaluate(part, answer_of))
        for negative in negatives:
            inner = _evaluate(negative.part, answer_of)
            uncovered = [c for c in inner.columns if c not in result.columns]
            if uncovered:
                raise ReproError(
                    f"unsafe negation: variables {[str(v) for v in uncovered]} "
                    f"of {negative} are not bound positively"
                )
            anti = result.project(inner.columns)
            keep = {row for row in anti.rows if row not in inner.rows}
            # filter result rows whose projection survives
            indices = [result.columns.index(c) for c in inner.columns]
            result = _Relation(
                result.columns,
                {
                    row
                    for row in result.rows
                    if tuple(row[i] for i in indices) in keep
                },
            )
        return result
    if isinstance(expression, EqlOr):
        first = _evaluate(expression.parts[0], answer_of)
        columns = first.columns
        rows = set(first.rows)
        for part in expression.parts[1:]:
            relation = _evaluate(part, answer_of)
            if set(relation.columns) != set(columns):
                raise ReproError(
                    "disjuncts of an EQL OR must share their free variables"
                )
            rows |= relation.project(columns).rows
        return _Relation(columns, rows)
    if isinstance(expression, EqlExists):
        inner = _evaluate(expression.part, answer_of)
        return inner.project(expression.free_variables())
    if isinstance(expression, EqlNot):
        raise ReproError(
            "unsafe EQL expression: negation outside a conjunction"
        )
    raise TypeError(f"not an EQL expression: {expression!r}")


def evaluate_eql(
    query: EqlQuery,
    tbox: TBox,
    extents: ExtentProvider,
    rewriter=perfect_ref,
) -> Set[Tuple]:
    """Answer an EQL-Lite query: rewrite + answer each K-atom, then
    evaluate the first-order shell over the certain-answer relations."""

    cache: Dict[KAtom, Set[Tuple]] = {}

    def answer_of(atom: KAtom) -> Set[Tuple]:
        answers = cache.get(atom)
        if answers is None:
            rewritten = rewriter(atom.query, tbox)
            answers = evaluate_ucq(rewritten, extents)
            cache[atom] = answers
        return answers

    relation = _evaluate(query.expression, answer_of)
    return relation.project(query.answer_vars).rows
