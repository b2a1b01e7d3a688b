"""Canonical cache keys for conjunctive queries and unions thereof.

Rewriting depends only on the *structure* of a query, never on the names
of its variables, the order of its atoms/disjuncts or the values of its
constants (a DL-Lite TBox names no individuals).  Keying the caches on a
canonical form therefore lets queries of one shape — ``q(x) :- A(x),
r(x, y)`` and ``q(u) :- r(u, w), A(u)``, or ``q(x) :- r(x, 'd/1')`` and
``q(x) :- r(x, 'd/2')`` — share work, which is exactly the hit pattern
of templated application workloads (same query shape, fresh variable
names and constants per request).

The per-CQ canonical form is :meth:`ConjunctiveQuery.canonical`
(answer variables numbered by position, existential variables numbered
by first occurrence in the sorted atom list); :func:`ucq_key` lifts it
to unions by sorting the set of disjunct forms, making the key invariant
under disjunct order and duplication too.

:func:`template_key` is that form with each distinct constant (by string
form, :attr:`Constant.key`) replaced by a parameter numbered by first
occurrence: two queries with one template differ at most in the
constants bound to its parameters.  A rewriting computed for one of them
serves the others once :func:`bind_constants` has put their constants in
place of its own.  The template plus the constants' string forms tells
queries apart as :func:`ucq_key` does, so a call that keys its answers,
rewriting and unfolding by them canonicalizes its query once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, NamedTuple, Tuple, Union

from ..obda.queries import ConjunctiveQuery, Constant, UnionQuery, Variable

__all__ = ["Template", "bind_constants", "cq_key", "template_key", "ucq_key"]


def cq_key(cq: ConjunctiveQuery) -> Tuple:
    """A hashable form of *cq*, invariant under variable renaming and
    atom reordering (two CQs with equal keys have equal certain answers
    over every extent provider)."""
    return cq.canonical()


def ucq_key(query: Union[UnionQuery, ConjunctiveQuery]) -> Tuple:
    """A hashable form of a UCQ, additionally invariant under disjunct
    order and disjunct duplication.

    >>> from repro.obda.cq_parser import parse_query
    >>> a = parse_query("q(x) :- Teacher(x), teaches(x, y)")
    >>> b = parse_query("p(u) :- teaches(u, v), Teacher(u)")
    >>> ucq_key(a) == ucq_key(b)
    True
    """
    if isinstance(query, ConjunctiveQuery):
        return (query.arity, (query.canonical(),))
    forms = {cq.canonical() for cq in query}
    # heterogeneous tuples sort stably by repr (no cross-type comparisons)
    return (query.arity, tuple(sorted(forms, key=repr)))


class Template(NamedTuple):
    """A query's template (:func:`template_key`), its constants in
    parameter order and their string forms."""

    shape: Tuple
    constants: Tuple[Constant, ...]
    keys: Tuple[str, ...]


#: a constant's place in the first, value-blind sort of a CQ's atoms
_PARAMETER = ("p",)


def _cq_template(cq: ConjunctiveQuery) -> Tuple[Tuple, List[Constant]]:
    """*cq*'s canonical form with its constants as parameters ``("p",
    i)`` numbered by first occurrence in it, and its constants in that
    order.  The atoms are sorted before any constant is read, so the
    order, and the numbering with it, does not depend on their values."""
    ordering: Dict[Variable, Tuple[str, int]] = {
        variable: ("v", i) for i, variable in enumerate(cq.answer_vars)
    }
    atoms = cq.atoms
    if len(atoms) > 1:

        def blind(atom):
            return (
                atom.predicate,
                tuple([
                    _PARAMETER if term.__class__ is Constant
                    else ordering.get(term) or ("e", term.name)
                    for term in atom.args
                ]),
            )

        atoms = sorted(atoms, key=blind)
    numbered = dict(ordering)
    # a repeated answer variable keeps its last position: existential
    # variables are numbered past every position, not past len(ordering)
    fresh = len(cq.answer_vars)
    parameters: Dict[str, Tuple[str, int]] = {}
    constants: List[Constant] = []
    shape = []
    for atom in atoms:
        terms = []
        for term in atom.args:
            if term.__class__ is Constant:
                part = parameters.get(term.key)
                if part is None:
                    part = parameters[term.key] = ("p", len(constants))
                    constants.append(term)
            else:
                part = numbered.get(term)
                if part is None:
                    part = numbered[term] = ("v", fresh)
                    fresh += 1
            terms.append(part)
        shape.append((atom.predicate, tuple(terms)))
    shape.sort()
    return (len(cq.answer_vars), tuple(shape)), constants


def template_key(query: Union[UnionQuery, ConjunctiveQuery]) -> Template:
    """The template of a CQ or UCQ: its canonical form, invariant under
    variable renaming, atom and disjunct order and disjunct duplication
    as :func:`ucq_key` is, with each distinct constant (by string form)
    replaced by a parameter numbered by first occurrence.

    >>> from repro.obda.cq_parser import parse_query
    >>> a = template_key(parse_query("q(x) :- memberOf(x, 'd/1'), Teacher(x)"))
    >>> b = template_key(parse_query("p(u) :- Teacher(u), memberOf(u, 'd/7')"))
    >>> a.shape == b.shape, a.keys, b.keys
    (True, ('d/1',), ('d/7',))
    >>> c = template_key(parse_query("q(x) :- r(x, 'a'), s(x, 'a')"))
    >>> d = template_key(parse_query("q(x) :- r(x, 'a'), s(x, 'b')"))
    >>> c.shape == d.shape
    False
    """
    disjuncts = (query,) if isinstance(query, ConjunctiveQuery) else query.disjuncts
    if len(disjuncts) == 1:
        form, constants = _cq_template(disjuncts[0])
        return Template(
            (form[0], (form,)), tuple(constants), tuple([c.key for c in constants])
        )
    # number the parameters across the union: by first occurrence in the
    # disjuncts sorted by their own (value-blind) templates
    parameters: Dict[str, int] = {}
    constants = []
    forms = set()
    for form, local in sorted(map(_cq_template, disjuncts), key=itemgetter(0)):
        if local:
            renumbered = []
            for constant in local:
                number = parameters.get(constant.key)
                if number is None:
                    number = parameters[constant.key] = len(constants)
                    constants.append(constant)
                renumbered.append(("p", number))
            form = (
                form[0],
                tuple(sorted([
                    (predicate, tuple([
                        renumbered[part[1]] if part[0] == "p" else part
                        for part in terms
                    ]))
                    for predicate, terms in form[1]
                ])),
            )
        forms.add(form)
    return Template(
        (query.arity, tuple(sorted(forms))),
        tuple(constants),
        tuple([c.key for c in constants]),
    )


def bind_constants(ucq: UnionQuery, bound: Dict[str, Constant]) -> UnionQuery:
    """*ucq* with each constant whose string form *bound* maps replaced
    by the constant it maps to, in one pass.

    *bound* renames the constants of a template one-to-one (from those
    of the query *ucq* was rewritten from to another's), so distinct
    atoms stay distinct and the disjuncts are rebuilt without the
    constructors' checks; a disjunct without constants is kept as it
    is."""
    disjuncts = []
    for cq in ucq:
        atoms = None
        for position, atom in enumerate(cq.atoms):
            args = atom.args
            for term in args:
                if term.__class__ is Constant:
                    break
            else:
                continue
            if atoms is None:
                atoms = list(cq.atoms)
            atoms[position] = atom.with_args(tuple([
                bound[term.key] if term.__class__ is Constant else term for term in args
            ]))
        disjuncts.append(cq if atoms is None else cq.with_atoms(atoms))
    return ucq.with_disjuncts(disjuncts)
