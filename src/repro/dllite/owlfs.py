"""OWL 2 functional-style syntax for the QL profile (reader and writer).

The paper's classification technique targets OWL 2 QL, whose constructs map
onto DL-Lite_R/A as follows:

=========================================  ================================
OWL 2 QL functional syntax                  DL-Lite
=========================================  ================================
``SubClassOf(C1 C2)``                       ``B ⊑ C``
``SubObjectPropertyOf(Q1 Q2)``              ``Q ⊑ R``
``SubDataPropertyOf(U1 U2)``                ``U1 ⊑ U2``
``DisjointClasses(B1 B2)``                  ``B1 ⊑ ¬B2``
``DisjointObjectProperties(Q1 Q2)``         ``Q1 ⊑ ¬Q2``
``DisjointDataProperties(U1 U2)``           ``U1 ⊑ ¬U2``
``ObjectPropertyDomain(Q B)``               ``∃Q ⊑ B``
``ObjectPropertyRange(Q B)``                ``∃Q⁻ ⊑ B``
``DataPropertyDomain(U B)``                 ``δ(U) ⊑ B``
``FunctionalObjectProperty(Q)``             ``(funct Q)``  (QL extension)
``FunctionalDataProperty(U)``               ``(funct U)``  (QL extension)
``ObjectSomeValuesFrom(Q owl:Thing)``       ``∃Q``
``ObjectSomeValuesFrom(Q A)``               ``∃Q.A``
``ObjectInverseOf(P)``                      ``P⁻``
``ObjectComplementOf(B)``                   ``¬B``
``DataSomeValuesFrom(U rdfs:Literal)``      ``δ(U)``
``ClassAssertion(A a)``                     ``A(a)``
``ObjectPropertyAssertion(P a b)``          ``P(a, b)``
``DataPropertyAssertion(U a v)``            ``U(a, v)``
=========================================  ================================

Prefixed names have their prefix stripped (``:Person`` and ``ex:Person``
both become ``Person``); full IRIs keep their fragment or last path
segment.  ``Declaration`` axioms register predicates in the signature.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import List, Optional, Tuple, Union

from ..errors import LanguageViolation, SyntaxError_
from .abox import (
    AttributeAssertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from .axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
    RoleInclusion,
)
from .ontology import Ontology
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
    inverse_of,
    negate,
)
from .tbox import TBox

__all__ = ["parse_owl_functional", "serialize_owl_functional"]

_THING = ("owl:Thing", "Thing")
_LITERAL = ("rdfs:Literal", "Literal", "topDataProperty")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<coloneq>:=)
  | (?P<equals>=)
  | (?P<string>"(?:[^"\\]|\\.)*"(?:\^\^[A-Za-z0-9_:.<>#/-]+)?(?:@[A-Za-z-]+)?)
  | (?P<iri><[^>]*>)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*)?:(?P<local>[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
    """,
    re.VERBOSE,
)


def _local_name(iri: str) -> str:
    if iri.startswith("<"):
        body = iri[1:-1]
        if "#" in body:
            return body.rsplit("#", 1)[1]
        if "/" in body:
            return body.rstrip("/").rsplit("/", 1)[1]
        return body
    # prefixed name: strip the prefix (":Person", "ex:Person" → "Person")
    return iri.rsplit(":", 1)[-1]


Token = Tuple[str, str, int]


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            raise SyntaxError_("unexpected character", text[:200], position)
        kind = match.lastgroup
        value = match.group()
        if kind == "local":
            prefix = match.group("pname") or ""
            tokens.append(("pname", f"{prefix}:{match.group('local')}", position))
        elif kind not in ("ws", "comment"):
            tokens.append((kind, value, position))
        position = match.end()
    return tokens


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SyntaxError_("unexpected end of OWL document", "", len(self.text))
        self.index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token[0] != kind:
            raise SyntaxError_(f"expected {kind}, found {token[1]!r}", "", token[2])
        return token

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    # -- s-expressions -------------------------------------------------------

    def read_form(self):
        """Read a name, IRI, literal, or ``Head(arg ...)`` application."""
        token = self.next()
        kind, value, position = token
        if kind in ("pname", "iri"):
            return _local_name(value if kind == "pname" else value)
        if kind == "string":
            return _parse_literal(value)
        if kind == "number":
            return float(value) if "." in value else int(value)
        if kind == "name":
            if self.peek() is not None and self.peek()[0] == "lpar":
                self.next()
                args = []
                while True:
                    nxt = self.peek()
                    if nxt is None:
                        raise SyntaxError_("unclosed '('", "", position)
                    if nxt[0] == "rpar":
                        self.next()
                        break
                    args.append(self.read_form())
                return (value, args)
            return value
        raise SyntaxError_(f"unexpected token {value!r}", "", position)


def _parse_literal(raw: str):
    match = re.match(r'"((?:[^"\\]|\\.)*)"', raw)
    body = match.group(1).replace('\\"', '"').replace("\\\\", "\\")
    suffix = raw[match.end():]
    if suffix.startswith("^^"):
        datatype = suffix[2:]
        if "integer" in datatype or "int" in datatype:
            return int(body)
        if "decimal" in datatype or "double" in datatype or "float" in datatype:
            return float(body)
        if "boolean" in datatype:
            return body == "true"
    return body


# ---------------------------------------------------------------------------
# Form -> DL-Lite expressions
# ---------------------------------------------------------------------------


def _as_role(form):
    if isinstance(form, str):
        return AtomicRole(form)
    head, args = form
    if head == "ObjectInverseOf":
        return inverse_of(_as_role(args[0]))
    raise LanguageViolation(f"not an OWL 2 QL property expression: {head}")


def _as_concept(form):
    if isinstance(form, str):
        if form in _THING:
            raise LanguageViolation("owl:Thing is not a DL-Lite basic concept here")
        return AtomicConcept(form)
    head, args = form
    if head == "ObjectSomeValuesFrom":
        role = _as_role(args[0])
        filler = args[1]
        if isinstance(filler, str) and filler in _THING:
            return ExistentialRole(role)
        if isinstance(filler, str):
            return QualifiedExistential(role, AtomicConcept(filler))
        raise LanguageViolation("OWL 2 QL allows only named fillers in qualified ∃")
    if head == "DataSomeValuesFrom":
        return AttributeDomain(AtomicAttribute(str(args[0])))
    if head == "ObjectComplementOf":
        return negate(_as_concept(args[0]))
    raise LanguageViolation(f"not an OWL 2 QL class expression: {head}")


def _axioms_of(form) -> List[Axiom]:
    head, args = form
    if head == "SubClassOf":
        return [ConceptInclusion(_as_concept(args[0]), _as_concept(args[1]))]
    if head == "SubObjectPropertyOf":
        return [RoleInclusion(_as_role(args[0]), _as_role(args[1]))]
    if head == "SubDataPropertyOf":
        return [
            AttributeInclusion(
                AtomicAttribute(str(args[0])), AtomicAttribute(str(args[1]))
            )
        ]
    if head == "DisjointClasses":
        axioms = []
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                axioms.append(
                    ConceptInclusion(_as_concept(args[i]), negate(_as_concept(args[j])))
                )
        return axioms
    if head == "DisjointObjectProperties":
        axioms = []
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                axioms.append(
                    RoleInclusion(_as_role(args[i]), NegatedRole(_as_role(args[j])))
                )
        return axioms
    if head == "DisjointDataProperties":
        axioms = []
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                axioms.append(
                    AttributeInclusion(
                        AtomicAttribute(str(args[i])),
                        NegatedAttribute(AtomicAttribute(str(args[j]))),
                    )
                )
        return axioms
    if head == "ObjectPropertyDomain":
        return [
            ConceptInclusion(ExistentialRole(_as_role(args[0])), _as_concept(args[1]))
        ]
    if head == "ObjectPropertyRange":
        return [
            ConceptInclusion(
                ExistentialRole(inverse_of(_as_role(args[0]))), _as_concept(args[1])
            )
        ]
    if head == "DataPropertyDomain":
        return [
            ConceptInclusion(
                AttributeDomain(AtomicAttribute(str(args[0]))), _as_concept(args[1])
            )
        ]
    if head == "InverseObjectProperties":
        first, second = _as_role(args[0]), _as_role(args[1])
        return [
            RoleInclusion(first, inverse_of(second)),
            RoleInclusion(inverse_of(second), first),
        ]
    if head == "EquivalentClasses":
        axioms = []
        for i in range(len(args)):
            for j in range(len(args)):
                if i != j:
                    axioms.append(
                        ConceptInclusion(_as_concept(args[i]), _as_concept(args[j]))
                    )
        return axioms
    if head == "EquivalentObjectProperties":
        axioms = []
        for i in range(len(args)):
            for j in range(len(args)):
                if i != j:
                    axioms.append(RoleInclusion(_as_role(args[i]), _as_role(args[j])))
        return axioms
    if head == "FunctionalObjectProperty":
        return [FunctionalRole(_as_role(args[0]))]
    if head == "FunctionalDataProperty":
        return [FunctionalAttribute(AtomicAttribute(str(args[0])))]
    raise LanguageViolation(f"unsupported OWL axiom: {head}")


def parse_owl_functional(text: str, name: str = "ontology") -> Ontology:
    """Parse an OWL 2 QL document in functional-style syntax.

    The TBox forms are queued in document order and loaded in runs: one
    ``declare`` per run of declarations, one ``extend`` per run of
    axioms.  Declaring a predicate an earlier axiom brought in moves no
    generation, so this gives the TBox of one call per form.
    """
    reader = _Reader(text)
    ontology = Ontology(name=name)
    queued: List = []  # predicates to declare and axioms to add
    while not reader.at_end():
        token = reader.peek()
        if token[0] == "name" and token[1] == "Prefix":
            # Prefix(ex:=<http://...>) — consume and ignore.
            reader.next()
            reader.expect("lpar")
            depth = 1
            while depth:
                kind = reader.next()[0]
                if kind == "lpar":
                    depth += 1
                elif kind == "rpar":
                    depth -= 1
            continue
        form = reader.read_form()
        if isinstance(form, str):
            raise SyntaxError_(f"stray token {form!r} in OWL document", "", token[2])
        head, args = form
        if head == "Ontology":
            for sub in args:
                if isinstance(sub, tuple):
                    _dispatch(sub, ontology, queued)
            continue
        _dispatch(form, ontology, queued)
    for axioms, run in groupby(queued, lambda item: isinstance(item, Axiom)):
        if axioms:
            ontology.tbox.extend(run)
        else:
            ontology.tbox.declare(*run)
    return ontology


def _dispatch(form, ontology: Ontology, queued: List) -> None:
    head, args = form
    if isinstance(head, str) and head in ("Import",):
        return
    if head == "Declaration":
        kind, inner = args[0]
        name = str(inner[0])
        if kind == "Class":
            queued.append(AtomicConcept(name))
        elif kind == "ObjectProperty":
            queued.append(AtomicRole(name))
        elif kind in ("DataProperty", "AnnotationProperty"):
            if kind == "DataProperty":
                queued.append(AtomicAttribute(name))
        elif kind == "NamedIndividual":
            pass
        else:
            raise LanguageViolation(f"unsupported declaration kind: {kind}")
        return
    if head == "ClassAssertion":
        ontology.abox.add(
            ConceptAssertion(_as_concept(args[0]), Individual(str(args[1])))
        )
        return
    if head == "ObjectPropertyAssertion":
        role = _as_role(args[0])
        subject, object_ = Individual(str(args[1])), Individual(str(args[2]))
        if isinstance(role, InverseRole):
            role, subject, object_ = role.role, object_, subject
        ontology.abox.add(RoleAssertion(role, subject, object_))
        return
    if head == "DataPropertyAssertion":
        ontology.abox.add(
            AttributeAssertion(
                AtomicAttribute(str(args[0])), Individual(str(args[1])), args[2]
            )
        )
        return
    if head in ("AnnotationAssertion",):
        return
    queued.extend(_axioms_of(form))


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def _concept_fs(expr) -> str:
    if isinstance(expr, AtomicConcept):
        return f":{expr.name}"
    if isinstance(expr, ExistentialRole):
        return f"ObjectSomeValuesFrom({_role_fs(expr.role)} owl:Thing)"
    if isinstance(expr, QualifiedExistential):
        return f"ObjectSomeValuesFrom({_role_fs(expr.role)} :{expr.filler.name})"
    if isinstance(expr, AttributeDomain):
        return f"DataSomeValuesFrom(:{expr.attribute.name} rdfs:Literal)"
    if isinstance(expr, NegatedConcept):
        return f"ObjectComplementOf({_concept_fs(expr.concept)})"
    raise LanguageViolation(f"cannot serialize concept: {expr!r}")


def _role_fs(expr) -> str:
    if isinstance(expr, AtomicRole):
        return f":{expr.name}"
    if isinstance(expr, InverseRole):
        return f"ObjectInverseOf(:{expr.role.name})"
    raise LanguageViolation(f"cannot serialize role: {expr!r}")


def serialize_owl_functional(ontology: Union[Ontology, TBox]) -> str:
    """Serialize an ontology (or bare TBox) to OWL functional-style syntax."""
    if isinstance(ontology, TBox):
        ontology = Ontology(tbox=ontology, name=ontology.name)
    lines = ["Prefix(:=<http://repro.example.org/onto#>)", "Ontology(<http://repro.example.org/onto>"]
    for concept in sorted(ontology.signature.concepts, key=lambda c: c.name):
        lines.append(f"  Declaration(Class(:{concept.name}))")
    for role in sorted(ontology.signature.roles, key=lambda r: r.name):
        lines.append(f"  Declaration(ObjectProperty(:{role.name}))")
    for attribute in sorted(ontology.signature.attributes, key=lambda a: a.name):
        lines.append(f"  Declaration(DataProperty(:{attribute.name}))")
    for axiom in ontology.tbox:
        lines.append(f"  {_axiom_fs(axiom)}")
    for assertion in sorted(ontology.abox, key=str):
        lines.append(f"  {_assertion_fs(assertion)}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _axiom_fs(axiom: Axiom) -> str:
    if isinstance(axiom, ConceptInclusion):
        if isinstance(axiom.rhs, NegatedConcept):
            return (
                f"DisjointClasses({_concept_fs(axiom.lhs)} "
                f"{_concept_fs(axiom.rhs.concept)})"
            )
        return f"SubClassOf({_concept_fs(axiom.lhs)} {_concept_fs(axiom.rhs)})"
    if isinstance(axiom, RoleInclusion):
        if isinstance(axiom.rhs, NegatedRole):
            return (
                f"DisjointObjectProperties({_role_fs(axiom.lhs)} "
                f"{_role_fs(axiom.rhs.role)})"
            )
        return f"SubObjectPropertyOf({_role_fs(axiom.lhs)} {_role_fs(axiom.rhs)})"
    if isinstance(axiom, AttributeInclusion):
        if isinstance(axiom.rhs, NegatedAttribute):
            return (
                f"DisjointDataProperties(:{axiom.lhs.name} "
                f":{axiom.rhs.attribute.name})"
            )
        return f"SubDataPropertyOf(:{axiom.lhs.name} :{axiom.rhs.name})"
    if isinstance(axiom, FunctionalRole):
        return f"FunctionalObjectProperty({_role_fs(axiom.role)})"
    if isinstance(axiom, FunctionalAttribute):
        return f"FunctionalDataProperty(:{axiom.attribute.name})"
    raise LanguageViolation(f"cannot serialize axiom: {axiom!r}")


def _assertion_fs(assertion) -> str:
    if isinstance(assertion, ConceptAssertion):
        return f"ClassAssertion(:{assertion.concept.name} :{assertion.individual.name})"
    if isinstance(assertion, RoleAssertion):
        return (
            f"ObjectPropertyAssertion(:{assertion.role.name} "
            f":{assertion.subject.name} :{assertion.object.name})"
        )
    if isinstance(assertion, AttributeAssertion):
        value = assertion.value
        if isinstance(value, bool):
            literal = f'"{str(value).lower()}"^^xsd:boolean'
        elif isinstance(value, int):
            literal = f'"{value}"^^xsd:integer'
        elif isinstance(value, float):
            literal = f'"{value}"^^xsd:decimal'
        else:
            literal = '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        return (
            f"DataPropertyAssertion(:{assertion.attribute.name} "
            f":{assertion.subject.name} {literal})"
        )
    raise LanguageViolation(f"cannot serialize assertion: {assertion!r}")
