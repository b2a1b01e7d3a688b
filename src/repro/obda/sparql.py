"""A SPARQL front-end for the OBDA engine (basic graph patterns + UNION).

The paper's survey (§2) notes that Quest "provides SPARQL query
answering under the OWL 2 QL ... entailment regimes"; this module gives
the same surface over our engine by translating the SPARQL fragment that
corresponds to UCQs into :class:`~repro.obda.queries.UnionQuery`:

* ``SELECT [DISTINCT] ?x ?y WHERE { ... }`` — projection;
* basic graph patterns — triples ``?s <p> ?o`` with ``;``/``,``
  continuation, ``a``/``rdf:type`` for concept atoms;
* top-level ``UNION`` of group graph patterns — UCQ disjuncts;
* prefixed names (``PREFIX`` declarations honoured, local name used as
  the predicate/individual name, matching the library's convention),
  quoted literals and numbers.

Anything beyond the UCQ fragment (OPTIONAL, FILTER, paths, ...) is
rejected with a clear error — those constructs exceed certain-answer
semantics over DL-Lite.

>>> parse_sparql('''
...     SELECT ?x WHERE { ?x a :Teacher . ?x :teaches ?y }
... ''').arity
1
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import SyntaxError_
from .queries import Atom, Constant, ConjunctiveQuery, Term, UnionQuery, Variable

__all__ = ["parse_sparql"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<keyword>(?i:SELECT|DISTINCT|WHERE|UNION|PREFIX)\b)
  | (?P<a>a\b)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<iri><[^>]*>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*)?:(?P<local>[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<pfx>(?:[A-Za-z_][A-Za-z0-9_.-]*)?:)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<dot>\.)
  | (?P<semi>;)
  | (?P<comma>,)
  | (?P<star>\*)
    """,
    re.VERBOSE,
)


def _local_name(iri: str) -> str:
    body = iri[1:-1]
    if "#" in body:
        return body.rsplit("#", 1)[1]
    if "/" in body:
        return body.rstrip("/").rsplit("/", 1)[1]
    return body


Token = Tuple[str, str, int]


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            raise SyntaxError_("unsupported SPARQL syntax", text[position:position + 30], position)
        kind = match.lastgroup
        value = match.group()
        if kind == "keyword":
            tokens.append((value.upper(), value, position))
        elif kind == "local":
            tokens.append(("pname", value, position))
        elif kind not in ("ws", "comment"):
            tokens.append((kind, value, position))
        position = match.end()
    return tokens


class _SparqlParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SyntaxError_("unexpected end of SPARQL query", self.text)
        self.index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token[0] != kind:
            raise SyntaxError_(
                f"expected {kind}, found {token[1]!r}", self.text, token[2]
            )
        return token

    def accept(self, kind: str) -> bool:
        token = self.peek()
        if token is not None and token[0] == kind:
            self.index += 1
            return True
        return False

    # -- grammar ------------------------------------------------------------------

    def parse(self) -> UnionQuery:
        while self.accept("PREFIX"):
            self.expect("pfx")
            self.expect("iri")
        self.expect("SELECT")
        self.accept("DISTINCT")
        answer_vars: List[Variable] = []
        star = False
        while True:
            token = self.peek()
            if token is None:
                raise SyntaxError_("missing WHERE clause", self.text)
            if token[0] == "var":
                self.next()
                answer_vars.append(Variable(token[1][1:]))
            elif token[0] == "star":
                self.next()
                star = True
            else:
                break
        self.expect("WHERE")
        groups = self.parse_union_groups()
        disjuncts: List[ConjunctiveQuery] = []
        for atoms in groups:
            if star:
                variables = sorted(
                    {t for a in atoms for t in a.args if isinstance(t, Variable)},
                    key=lambda v: v.name,
                )
                head = tuple(variables)
            else:
                head = tuple(answer_vars)
            disjuncts.append(ConjunctiveQuery(head, atoms, name="q"))
        if self.peek() is not None:
            token = self.peek()
            raise SyntaxError_(
                f"unsupported SPARQL construct at {token[1]!r}", self.text, token[2]
            )
        return UnionQuery(disjuncts, name="q")

    def parse_union_groups(self) -> List[List[Atom]]:
        self.expect("lbrace")
        if self.peek() is not None and self.peek()[0] == "lbrace":
            # { { BGP } UNION { BGP } ... }
            groups = [self.parse_group()]
            while self.accept("UNION"):
                groups.append(self.parse_group())
            self.expect("rbrace")
            return groups
        return [self.parse_bgp_until_rbrace()]

    def parse_group(self) -> List[Atom]:
        self.expect("lbrace")
        return self.parse_bgp_until_rbrace()

    def parse_bgp_until_rbrace(self) -> List[Atom]:
        atoms: List[Atom] = []
        while True:
            token = self.peek()
            if token is None:
                raise SyntaxError_("unterminated group pattern", self.text)
            if token[0] == "rbrace":
                self.next()
                break
            atoms.extend(self.parse_triple_block())
            self.accept("dot")
        if not atoms:
            raise SyntaxError_("empty group pattern", self.text)
        return atoms

    def parse_term(self) -> Term:
        token = self.next()
        kind, value, position = token
        if kind == "var":
            return Variable(value[1:])
        if kind == "iri":
            return Constant(_local_name(value))
        if kind == "pname":
            return Constant(value.rsplit(":", 1)[-1])
        if kind == "string":
            return Constant(value[1:-1].replace('\\"', '"'))
        if kind == "number":
            return Constant(float(value) if "." in value else int(value))
        raise SyntaxError_(f"unexpected term {value!r}", self.text, position)

    def parse_predicate(self) -> Optional[str]:
        """Returns the predicate name, or None for rdf:type (``a``)."""
        token = self.next()
        kind, value, position = token
        if kind == "a":
            return None
        if kind == "pname":
            local = value.rsplit(":", 1)[-1]
            return None if value == "rdf:type" else local
        if kind == "iri":
            local = _local_name(value)
            return None if local == "type" and "rdf-syntax" in value else local
        raise SyntaxError_(f"expected a predicate, found {value!r}", self.text, position)

    def parse_triple_block(self) -> List[Atom]:
        """``subject pred obj (, obj)* (; pred obj ...)*``"""
        subject = self.parse_term()
        atoms: List[Atom] = []
        while True:
            predicate = self.parse_predicate()
            while True:
                obj = self.parse_term()
                if predicate is None:
                    if not isinstance(obj, Constant):
                        raise SyntaxError_(
                            "rdf:type object must be a class name", self.text
                        )
                    atoms.append(Atom(str(obj.value), (subject,)))
                else:
                    atoms.append(Atom(predicate, (subject, obj)))
                if not self.accept("comma"):
                    break
            if not self.accept("semi"):
                break
            if self.peek() is not None and self.peek()[0] in ("dot", "rbrace"):
                break
        return atoms


def parse_sparql(text: str) -> UnionQuery:
    """Parse a SPARQL SELECT query (UCQ fragment) into a UnionQuery."""
    return _SparqlParser(text).parse()
