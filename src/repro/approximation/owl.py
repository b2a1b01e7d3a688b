"""An expressive "OWL-ish" ontology language (ALCH) for approximation (§7).

The paper's approximation task starts from ontologies "formulated in
expressive languages (i.e. OWL)".  We model the ALCH fragment — enough
to exhibit everything the approximation has to cope with (conjunction,
disjunction, negation, universal and existential restrictions, role
hierarchies, domain/range), while staying decidable with a classic
tableau (:mod:`repro.approximation.owl_reasoner`).

Class expressions::

    C ::= A | ⊤ | ⊥ | ¬C | C ⊓ C | C ⊔ C | ∃R.C | ∀R.C

Axioms: ``SubClassOf``, ``EquivalentClasses``, ``DisjointClasses``,
``SubObjectPropertyOf``, ``ObjectPropertyDomain``, ``ObjectPropertyRange``
(the latter three normalize into GCIs / role pairs).  Inverse roles are
deliberately excluded from *this* language (the target DL-Lite has them;
see :mod:`repro.approximation.semantic` for how inverse-side DL-Lite
axioms are still recovered).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

__all__ = [
    "OwlClass",
    "Top",
    "Bottom",
    "Not",
    "And",
    "Or",
    "Some",
    "All",
    "OwlAxiom",
    "OwlSubClassOf",
    "OwlSubPropertyOf",
    "OwlOntology",
    "TOP",
    "BOTTOM",
    "nnf",
    "class_signature",
]


class ClassExpression:
    __slots__ = ()


@dataclass(frozen=True)
class OwlClass(ClassExpression):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Top(ClassExpression):
    def __str__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class Bottom(ClassExpression):
    def __str__(self) -> str:
        return "⊥"


TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True)
class Not(ClassExpression):
    operand: ClassExpression

    def __str__(self) -> str:
        return f"¬{self.operand}"


@dataclass(frozen=True)
class And(ClassExpression):
    operands: Tuple[ClassExpression, ...]

    def __init__(self, *operands):
        flat: List[ClassExpression] = []
        for operand in operands:
            if isinstance(operand, And):
                flat.extend(operand.operands)
            else:
                flat.append(operand)
        object.__setattr__(self, "operands", tuple(flat))

    def __str__(self) -> str:
        return "(" + " ⊓ ".join(map(str, self.operands)) + ")"


@dataclass(frozen=True)
class Or(ClassExpression):
    operands: Tuple[ClassExpression, ...]

    def __init__(self, *operands):
        flat: List[ClassExpression] = []
        for operand in operands:
            if isinstance(operand, Or):
                flat.extend(operand.operands)
            else:
                flat.append(operand)
        object.__setattr__(self, "operands", tuple(flat))

    def __str__(self) -> str:
        return "(" + " ⊔ ".join(map(str, self.operands)) + ")"


@dataclass(frozen=True)
class Some(ClassExpression):
    """``∃role.filler`` (role is an atomic role name)."""

    role: str
    filler: ClassExpression = TOP

    def __str__(self) -> str:
        return f"∃{self.role}.{self.filler}"


@dataclass(frozen=True)
class All(ClassExpression):
    """``∀role.filler``."""

    role: str
    filler: ClassExpression

    def __str__(self) -> str:
        return f"∀{self.role}.{self.filler}"


class OwlAxiom:
    __slots__ = ()


@dataclass(frozen=True)
class OwlSubClassOf(OwlAxiom):
    lhs: ClassExpression
    rhs: ClassExpression

    def __str__(self) -> str:
        return f"{self.lhs} ⊑ {self.rhs}"


@dataclass(frozen=True)
class OwlSubPropertyOf(OwlAxiom):
    lhs: str
    rhs: str

    def __str__(self) -> str:
        return f"{self.lhs} ⊑ {self.rhs}"


class OwlOntology:
    """A set of ALCH axioms with convenience constructors.

    ``EquivalentClasses``/``DisjointClasses``/domain/range normalize to
    GCIs at insertion, so downstream code only ever sees
    :class:`OwlSubClassOf` and :class:`OwlSubPropertyOf`.
    """

    def __init__(self, axioms: Iterable[OwlAxiom] = (), name: str = "owl"):
        self.name = name
        self.axioms: List[OwlAxiom] = []
        self._seen: Set[OwlAxiom] = set()
        for axiom in axioms:
            self.add(axiom)

    def add(self, axiom: OwlAxiom) -> bool:
        if not isinstance(axiom, (OwlSubClassOf, OwlSubPropertyOf)):
            raise TypeError(f"not an OWL axiom: {axiom!r}")
        if axiom in self._seen:
            return False
        self._seen.add(axiom)
        self.axioms.append(axiom)
        return True

    # -- sugar ---------------------------------------------------------------

    def subclass(self, lhs: ClassExpression, rhs: ClassExpression) -> None:
        self.add(OwlSubClassOf(lhs, rhs))

    def equivalent(self, first: ClassExpression, second: ClassExpression) -> None:
        self.add(OwlSubClassOf(first, second))
        self.add(OwlSubClassOf(second, first))

    def disjoint(self, first: ClassExpression, second: ClassExpression) -> None:
        self.add(OwlSubClassOf(first, Not(second)))

    def subproperty(self, lhs: str, rhs: str) -> None:
        self.add(OwlSubPropertyOf(lhs, rhs))

    def domain(self, role: str, concept: ClassExpression) -> None:
        self.add(OwlSubClassOf(Some(role, TOP), concept))

    def range(self, role: str, concept: ClassExpression) -> None:
        self.add(OwlSubClassOf(TOP, All(role, concept)))

    def class_names(self) -> Set[str]:
        names: Set[str] = set()
        for axiom in self.axioms:
            if isinstance(axiom, OwlSubClassOf):
                names |= {c.name for c in class_signature(axiom.lhs)}
                names |= {c.name for c in class_signature(axiom.rhs)}
        return names

    def role_names(self) -> Set[str]:
        names: Set[str] = set()
        for axiom in self.axioms:
            if isinstance(axiom, OwlSubPropertyOf):
                names |= {axiom.lhs, axiom.rhs}
            else:
                names |= _role_signature(axiom.lhs) | _role_signature(axiom.rhs)
        return names

    def subclass_axioms(self) -> List[OwlSubClassOf]:
        return [a for a in self.axioms if isinstance(a, OwlSubClassOf)]

    def subproperty_axioms(self) -> List[OwlSubPropertyOf]:
        return [a for a in self.axioms if isinstance(a, OwlSubPropertyOf)]

    def __len__(self) -> int:
        return len(self.axioms)

    def __iter__(self):
        return iter(self.axioms)

    def __repr__(self) -> str:
        return f"OwlOntology({self.name!r}, {len(self.axioms)} axioms)"


def class_signature(expression: ClassExpression) -> Set[OwlClass]:
    """Atomic classes occurring in *expression*."""
    if isinstance(expression, OwlClass):
        return {expression}
    if isinstance(expression, (Top, Bottom)):
        return set()
    if isinstance(expression, Not):
        return class_signature(expression.operand)
    if isinstance(expression, (And, Or)):
        result: Set[OwlClass] = set()
        for operand in expression.operands:
            result |= class_signature(operand)
        return result
    if isinstance(expression, (Some, All)):
        return class_signature(expression.filler)
    raise TypeError(f"not a class expression: {expression!r}")


def _role_signature(expression: ClassExpression) -> Set[str]:
    if isinstance(expression, (OwlClass, Top, Bottom)):
        return set()
    if isinstance(expression, Not):
        return _role_signature(expression.operand)
    if isinstance(expression, (And, Or)):
        result: Set[str] = set()
        for operand in expression.operands:
            result |= _role_signature(operand)
        return result
    if isinstance(expression, (Some, All)):
        return {expression.role} | _role_signature(expression.filler)
    raise TypeError(f"not a class expression: {expression!r}")


def nnf(expression: ClassExpression) -> ClassExpression:
    """Negation normal form (negation pushed onto atomic classes)."""
    if isinstance(expression, (OwlClass, Top, Bottom)):
        return expression
    if isinstance(expression, And):
        return And(*(nnf(op) for op in expression.operands))
    if isinstance(expression, Or):
        return Or(*(nnf(op) for op in expression.operands))
    if isinstance(expression, Some):
        return Some(expression.role, nnf(expression.filler))
    if isinstance(expression, All):
        return All(expression.role, nnf(expression.filler))
    if isinstance(expression, Not):
        inner = expression.operand
        if isinstance(inner, OwlClass):
            return expression
        if isinstance(inner, Top):
            return BOTTOM
        if isinstance(inner, Bottom):
            return TOP
        if isinstance(inner, Not):
            return nnf(inner.operand)
        if isinstance(inner, And):
            return Or(*(nnf(Not(op)) for op in inner.operands))
        if isinstance(inner, Or):
            return And(*(nnf(Not(op)) for op in inner.operands))
        if isinstance(inner, Some):
            return All(inner.role, nnf(Not(inner.filler)))
        if isinstance(inner, All):
            return Some(inner.role, nnf(Not(inner.filler)))
    raise TypeError(f"not a class expression: {expression!r}")
