"""Datalog-style surface syntax for conjunctive queries.

Examples::

    q(x)    :- Teacher(x), teaches(x, y)
    q(x, n) :- Professor(x), name(x, n)
    q()     :- worksFor(x, 'DIAG')          # boolean query
    q(x)    :- County(x) ; Municipality(x)  # ';' separates UCQ disjuncts

Variables are lower-case identifiers, constants are quoted strings or
numbers (upper-case bare names are also accepted as constants, matching
common datalog conventions).
"""

from __future__ import annotations

import re
from typing import List

from ..errors import SyntaxError_
from .queries import Atom, Constant, ConjunctiveQuery, UnionQuery, Variable

__all__ = ["parse_query", "parse_cq"]

_ATOM_RE = re.compile(
    r"\s*(?P<pred>[A-Za-z_][A-Za-z0-9_'-]*)\s*\(\s*(?P<args>[^)]*)\)\s*"
)
_HEAD_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<vars>[^)]*)\)\s*:-\s*(?P<body>.*)$",
    re.S,
)


def _parse_term(text: str, whole: str):
    text = text.strip()
    if not text:
        raise SyntaxError_("empty term", whole)
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return Constant(text[1:-1])
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return Constant(text[1:-1])
    if re.fullmatch(r"-?\d+", text):
        return Constant(int(text))
    if re.fullmatch(r"-?\d+\.\d+", text):
        return Constant(float(text))
    if re.fullmatch(r"[a-z][A-Za-z0-9_]*", text):
        return Variable(text)
    if re.fullmatch(r"[A-Z_][A-Za-z0-9_]*", text):
        return Constant(text)
    raise SyntaxError_(f"bad term {text!r}", whole)


def _parse_atoms(body: str, whole: str) -> List[Atom]:
    atoms: List[Atom] = []
    position = 0
    body = body.strip()
    while position < len(body):
        match = _ATOM_RE.match(body, position)
        if match is None:
            raise SyntaxError_("expected an atom", whole, position)
        args_text = match.group("args").strip()
        if args_text:
            args = tuple(
                _parse_term(arg, whole) for arg in args_text.split(",")
            )
        else:
            raise SyntaxError_(
                f"atom {match.group('pred')!r} has no arguments", whole, position
            )
        atoms.append(Atom(match.group("pred"), args))
        position = match.end()
        if position < len(body):
            if body[position] != ",":
                raise SyntaxError_("expected ',' between atoms", whole, position)
            position += 1
    if not atoms:
        raise SyntaxError_("empty query body", whole)
    return atoms


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse a single conjunctive query (no ``;`` disjunction)."""
    match = _HEAD_RE.match(text)
    if match is None:
        raise SyntaxError_("expected 'name(vars) :- body'", text)
    vars_text = match.group("vars").strip()
    answer_vars: List[Variable] = []
    if vars_text:
        for part in vars_text.split(","):
            term = _parse_term(part, text)
            if not isinstance(term, Variable):
                raise SyntaxError_(f"head term {part.strip()!r} is not a variable", text)
            answer_vars.append(term)
    atoms = _parse_atoms(match.group("body"), text)
    return ConjunctiveQuery(answer_vars, atoms, name=match.group("name"))


def parse_query(text: str) -> UnionQuery:
    """Parse a UCQ: one head, body disjuncts separated by ``;``."""
    match = _HEAD_RE.match(text)
    if match is None:
        raise SyntaxError_("expected 'name(vars) :- body [; body ...]'", text)
    head = f"{match.group('name')}({match.group('vars')})"
    disjuncts = [
        parse_cq(f"{head} :- {body.strip()}")
        for body in match.group("body").split(";")
    ]
    return UnionQuery(disjuncts, name=match.group("name"))
