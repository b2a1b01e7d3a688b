"""A small textual syntax for DL-Lite ontologies.

The grammar (ASCII on the left, the Unicode DL alternates are accepted
too)::

    document   := (declaration | axiom | comment)*
    declaration:= ("concept" | "role" | "attribute") NAME ("," NAME)*
    axiom      := concept "isa" concept            -- B ⊑ C
                | role "isa" role                  -- Q ⊑ R
                | attr "isa" attr                  -- U ⊑ V
                | "funct" (role | attr)            -- (funct Q)
    concept    := NAME
                | "exists" role ("." NAME)?        -- ∃Q / ∃Q.A
                | "domain" "(" NAME ")"            -- δ(U)
                | "not" concept
    role       := NAME ("^-")?                     -- P / P⁻
                | "not" role
    comment    := "#" ... end of line

Bare names are disambiguated through declarations; an undeclared bare
name defaults to a concept, while names used with ``^-``/``exists``
register as roles and names used with ``domain(..)`` as attributes.
Declarations and usages type a name for the whole document, wherever
they stand in it: ``P isa R`` is a role inclusion whether ``R^- isa S``
comes before or after it.  A bare name under ``funct`` that nothing
types is a role.  Example::

    role isPartOf
    County isa exists isPartOf . State
    State isa exists isPartOf^- . County
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..errors import LanguageViolation, SyntaxError_
from .axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
    RoleInclusion,
)
from .syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    NegatedAttribute,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
)
from .tbox import TBox

__all__ = ["parse_tbox", "parse_axiom", "parse_concept", "parse_role", "serialize_tbox"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<inv>\^-|⁻)
  | (?P<isa>isa\b|⊑|<=|=>)
  | (?P<exists>exists\b|∃)
  | (?P<not>not\b|¬)
  | (?P<funct>funct\b)
  | (?P<domain>domain\b|δ)
  | (?P<kind>concept\b|role\b|attribute\b)
  | (?P<dot>\.)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<name>[A-Za-z_][A-Za-z0-9_'-]*)
    """,
    re.VERBOSE,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'-]*")

#: the predicate each declaration keyword declares
_DECLARED = {"concept": AtomicConcept, "role": AtomicRole, "attribute": AtomicAttribute}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens: List[Tuple[str, str, int]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SyntaxError_("unexpected character", text, position)
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, match.group(), position))
        position = match.end()
    return tokens


class _KindRegistry:
    """Tracks which sort (concept/role/attribute) each bare name belongs to."""

    def __init__(self):
        self._kinds: Dict[str, str] = {}

    def declare(self, name: str, kind: str, text: str = "", position: int = -1) -> None:
        existing = self._kinds.get(name)
        if existing is not None and existing != kind:
            raise SyntaxError_(
                f"{name!r} was used both as {existing} and as {kind}", text, position
            )
        self._kinds[name] = kind

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]], text: str,
                 registry: _KindRegistry):
        self.tokens = tokens
        self.text = text
        self.index = 0
        self.registry = registry
        #: bare names read while the registry had no kind for them (each
        #: read as a concept; a later kind may change what the line means)
        self.untyped: List[str] = []
        #: ``(name, position)`` of each bare name read under ``funct``
        #: without a kind; the caller gives it the role default
        self.functs: List[Tuple[str, int]] = []

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Optional[Tuple[str, str, int]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise SyntaxError_("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return token

    def expect(self, kind: str) -> Tuple[str, str, int]:
        token = self.next()
        if token[0] != kind:
            raise SyntaxError_(
                f"expected {kind!r} but found {token[1]!r}", self.text, token[2]
            )
        return token

    def expect_end(self) -> None:
        if self.index < len(self.tokens):
            token = self.tokens[self.index]
            raise SyntaxError_(f"trailing input {token[1]!r}", self.text, token[2])

    # -- expression grammar ---------------------------------------------------

    def parse_side(self, allow_negation: bool):
        """Parse one side of an inclusion; returns a DL-Lite expression."""
        token = self.peek()
        if token is None:
            raise SyntaxError_("expected an expression", self.text, len(self.text))
        kind, value, position = token
        if kind == "not":
            if not allow_negation:
                raise SyntaxError_(
                    "negation is only allowed on the right-hand side",
                    self.text,
                    position,
                )
            self.next()
            inner = self.parse_side(allow_negation=False)
            if isinstance(inner, (AtomicRole, InverseRole)):
                return NegatedRole(inner)
            if isinstance(inner, AtomicAttribute):
                return NegatedAttribute(inner)
            return NegatedConcept(inner)
        if kind == "exists":
            self.next()
            role = self.parse_role()
            if self.peek() is not None and self.peek()[0] == "dot":
                self.next()
                filler_name = self.expect("name")[1]
                self.registry.declare(filler_name, "concept", self.text, position)
                return QualifiedExistential(role, AtomicConcept(filler_name))
            return ExistentialRole(role)
        if kind == "domain":
            self.next()
            self.expect("lpar")
            attr_name = self.expect("name")[1]
            self.expect("rpar")
            self.registry.declare(attr_name, "attribute", self.text, position)
            return AttributeDomain(AtomicAttribute(attr_name))
        if kind == "name":
            self.next()
            if self.peek() is not None and self.peek()[0] == "inv":
                self.next()
                self.registry.declare(value, "role", self.text, position)
                return InverseRole(AtomicRole(value))
            declared = self.registry.kind_of(value)
            if declared == "role":
                return AtomicRole(value)
            if declared == "attribute":
                return AtomicAttribute(value)
            # Bare undeclared names default to concepts.
            if declared is None:
                self.untyped.append(value)
            return AtomicConcept(value)
        raise SyntaxError_(f"unexpected token {value!r}", self.text, position)

    def parse_role(self):
        token = self.expect("name")
        name = token[1]
        self.registry.declare(name, "role", self.text, token[2])
        if self.peek() is not None and self.peek()[0] == "inv":
            self.next()
            return InverseRole(AtomicRole(name))
        return AtomicRole(name)


def _coerce_sides(lhs, rhs, text: str) -> Axiom:
    """Build the right axiom type from two parsed sides, fixing bare names.

    A bare name parses as a concept by default; when the *other* side is
    unambiguously a role or attribute, reinterpret it.
    """
    role_like = (AtomicRole, InverseRole, NegatedRole)
    attr_like = (AtomicAttribute, NegatedAttribute)

    def as_role(side):
        if isinstance(side, AtomicConcept):
            return AtomicRole(side.name)
        if isinstance(side, NegatedConcept) and isinstance(side.concept, AtomicConcept):
            return NegatedRole(AtomicRole(side.concept.name))
        return side

    def as_attr(side):
        if isinstance(side, AtomicConcept):
            return AtomicAttribute(side.name)
        if isinstance(side, NegatedConcept) and isinstance(side.concept, AtomicConcept):
            return NegatedAttribute(AtomicAttribute(side.concept.name))
        return side

    if isinstance(lhs, role_like) or isinstance(rhs, role_like):
        return RoleInclusion(as_role(lhs), as_role(rhs))
    if isinstance(lhs, attr_like) or isinstance(rhs, attr_like):
        return AttributeInclusion(as_attr(lhs), as_attr(rhs))
    if isinstance(rhs, NegatedConcept) and isinstance(rhs.concept, AtomicAttribute):
        return AttributeInclusion(as_attr(lhs), NegatedAttribute(rhs.concept))
    return ConceptInclusion(lhs, rhs)


def parse_axiom(text: str, registry: Optional[_KindRegistry] = None) -> Axiom:
    """Parse a single axiom, e.g. ``"County isa exists isPartOf . State"``."""
    parser = _Parser(_tokenize(text), text, registry or _KindRegistry())
    axiom = _parse_line(parser)
    for name, position in parser.functs:
        parser.registry.declare(name, "role", text, position)
    return axiom


def _parse_line(parser: _Parser) -> Axiom:
    """One whole axiom line (trailing input rejected)."""
    axiom = _parse_one_axiom(parser)
    parser.expect_end()
    return axiom


def _parse_one_axiom(parser: _Parser) -> Axiom:
    token = parser.peek()
    if token is not None and token[0] == "funct":
        parser.next()
        side = parser.parse_side(allow_negation=False)
        if isinstance(side, AtomicAttribute):
            return FunctionalAttribute(side)
        if isinstance(side, AtomicConcept):
            # A bare name under funct is a role unless typed otherwise; the
            # caller settles it (a concept is an error) once every line
            # that could type it has been read.
            parser.functs.append((side.name, token[2]))
            return FunctionalRole(AtomicRole(side.name))
        return FunctionalRole(side)
    lhs = parser.parse_side(allow_negation=False)
    parser.expect("isa")
    rhs = parser.parse_side(allow_negation=True)
    return _coerce_sides(lhs, rhs, parser.text)


def parse_concept(text: str):
    """Parse a standalone concept expression (``"exists teaches . Course"``)."""
    parser = _Parser(_tokenize(text), text, _KindRegistry())
    side = parser.parse_side(allow_negation=True)
    parser.expect_end()
    return side


def parse_role(text: str):
    """Parse a standalone role expression (``"isPartOf^-"``)."""
    parser = _Parser(_tokenize(text), text, _KindRegistry())
    role = parser.parse_role()
    parser.expect_end()
    return role


def parse_tbox(text: str, name: str = "tbox") -> TBox:
    """Parse a whole document (declarations + axioms, one per line).

    One pass over the lines tokenizes and parses each axiom line once,
    with the kinds the lines before it gave their names.  A bare name
    nothing has typed yet reads as a concept; each line keeps the names
    it read that way.  Once every line is read, a bare ``funct`` name
    still untyped becomes a role, and a line is parsed a second time
    only if a name it read untyped has since been typed a role or an
    attribute (or if its first reading was no DL-Lite axiom, which such
    a name may have caused).  Every line thus ends up read with the
    kinds of the whole document.  The declared predicates and the
    axioms then enter the TBox as one batch each.
    """
    registry = _KindRegistry()
    axioms: List[Optional[Axiom]] = []
    #: (index into axioms, line, the names it read untyped)
    untyped: List[Tuple[int, str, List[str]]] = []
    functs: List[Tuple[str, str, int]] = []
    notes: Dict[int, str] = {}
    pending_note: List[str] = []
    declared: List = []
    for raw_line in text.splitlines():
        stripped = raw_line.strip()
        if stripped.startswith("note:"):
            # a design note attaching to the next axiom line
            pending_note.append(stripped[len("note:"):].strip())
            continue
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        first_word = line.split(None, 1)[0]
        if first_word in _DECLARED:
            rest = line[len(first_word):]
            for name_part in rest.split(","):
                name_part = name_part.strip()
                if not name_part:
                    continue
                if not _NAME_RE.fullmatch(name_part):
                    raise SyntaxError_(f"bad declared name {name_part!r}", line)
                registry.declare(name_part, first_word, line)
                declared.append(_DECLARED[first_word](name_part))
            continue
        if pending_note:
            notes[len(axioms)] = " ".join(pending_note)
            pending_note = []
        parser = _Parser(_tokenize(line), line, registry)
        try:
            axioms.append(_parse_line(parser))
        except LanguageViolation:
            if not parser.untyped:
                raise
            axioms.append(None)  # read again below, with the names typed
        if parser.untyped:
            untyped.append((len(axioms) - 1, line, parser.untyped))
        functs.extend((funct, line, position) for funct, position in parser.functs)
    # Every line is read: an untyped funct name is a role (a concept is
    # an error), and lines whose untyped names got a kind are read again.
    for funct, line, position in functs:
        if registry.kind_of(funct) != "attribute":
            registry.declare(funct, "role", line, position)
    for index, line, names in untyped:
        if axioms[index] is None or any(
            registry.kind_of(name) in ("role", "attribute") for name in names
        ):
            axioms[index] = _parse_line(_Parser(_tokenize(line), line, registry))
    tbox = TBox(name=name)
    tbox.declare(*declared)
    tbox.extend(axioms)
    for index, note in notes.items():
        tbox.annotate(axioms[index], note)
    return tbox


def serialize_tbox(tbox: TBox) -> str:
    """Render a TBox back to the textual syntax (round-trips via parse_tbox)."""
    lines: List[str] = []
    concepts = sorted(c.name for c in tbox.signature.concepts)
    roles = sorted(r.name for r in tbox.signature.roles)
    attributes = sorted(a.name for a in tbox.signature.attributes)
    if concepts:
        lines.append("concept " + ", ".join(concepts))
    if roles:
        lines.append("role " + ", ".join(roles))
    if attributes:
        lines.append("attribute " + ", ".join(attributes))
    for axiom in tbox:
        note = tbox.annotation(axiom)
        if note is not None:
            lines.append(f"note: {note}")
        lines.append(axiom.to_ascii())
    return "\n".join(lines) + "\n"
