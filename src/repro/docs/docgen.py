"""Automated documentation extraction from an ontology (paper §8).

"It has in fact become apparent that the alignment between ontology and
project documentation must be handled in an automated way, through tools
that are able to extract information from the ontology, and to generate
at least a preliminary documentation. ... it allows the system to
automatically reflect, in the documentation, the changes that are made
in the modeling of the ontology."

:func:`generate_documentation` renders a Markdown document from a TBox:
one section per concept (told and inferred subsumers/subsumees, the
roles and attributes it participates in, disjointness), one per role
(domains, ranges, hierarchy, functionality) and one per attribute — all
derived from the classification, so regenerating the file after an edit
keeps documentation and ontology aligned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.classifier import GraphClassifier
from ..core.classify import Classification
from ..dllite.axioms import (
    ConceptInclusion,
    FunctionalAttribute,
    FunctionalRole,
)
from ..dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    NegatedConcept,
    QualifiedExistential,
)
from ..dllite.tbox import TBox

__all__ = ["DocumentationOptions", "generate_documentation"]


@dataclass
class DocumentationOptions:
    """Rendering knobs for :func:`generate_documentation`."""

    include_inferred: bool = True
    include_statistics: bool = True
    title: Optional[str] = None


def _role_facts(tbox: TBox) -> Dict[AtomicRole, Dict[str, List[str]]]:
    facts: Dict[AtomicRole, Dict[str, List[str]]] = {
        role: {"domain": [], "range": [], "functional": []}
        for role in tbox.signature.roles
    }
    for axiom in tbox.concept_inclusions:
        if isinstance(axiom.lhs, ExistentialRole) and not axiom.is_negative:
            role = axiom.lhs.role
            side = "range" if isinstance(role, InverseRole) else "domain"
            atom = role.role if isinstance(role, InverseRole) else role
            if atom in facts and not isinstance(
                axiom.rhs, (NegatedConcept, QualifiedExistential)
            ):
                facts[atom][side].append(str(axiom.rhs))
    for axiom in tbox.functionality_assertions:
        if isinstance(axiom, FunctionalRole):
            role = axiom.role
            atom = role.role if isinstance(role, InverseRole) else role
            if atom in facts:
                label = "inverse functional" if isinstance(role, InverseRole) else "functional"
                facts[atom]["functional"].append(label)
    return facts


def _names(expressions) -> List[str]:
    return sorted(str(e) for e in expressions)


def generate_documentation(
    tbox: TBox,
    classification: Optional[Classification] = None,
    options: Optional[DocumentationOptions] = None,
) -> str:
    """Render Markdown documentation for *tbox* (deterministic output)."""
    options = options or DocumentationOptions()
    if classification is None and options.include_inferred:
        classification = GraphClassifier().classify(tbox)

    lines: List[str] = [f"# {options.title or tbox.name}", ""]
    if options.include_statistics:
        stats = tbox.stats()
        lines += [
            "## At a glance",
            "",
            f"- **concepts:** {stats['concepts']}",
            f"- **roles:** {stats['roles']}",
            f"- **attributes:** {stats['attributes']}",
            f"- **axioms:** {stats['axioms']} "
            f"({stats['positive_inclusions']} positive, "
            f"{stats['negative_inclusions']} negative, "
            f"{stats['functionality']} functionality)",
            "",
        ]
        if classification is not None:
            unsat = [
                node
                for node in classification.unsatisfiable()
                if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute))
            ]
            if unsat:
                lines += [
                    "> **Design warning:** unsatisfiable predicates detected: "
                    + ", ".join(_names(unsat)),
                    "",
                ]

    # -- concepts ---------------------------------------------------------------
    if tbox.signature.concepts:
        lines += ["## Concepts", ""]
    told_parents: Dict[AtomicConcept, Set] = {}
    disjoint: Dict[AtomicConcept, Set] = {}
    participates: Dict[AtomicConcept, Set[str]] = {}
    for axiom in tbox.concept_inclusions:
        if isinstance(axiom.lhs, AtomicConcept):
            if isinstance(axiom.rhs, AtomicConcept):
                told_parents.setdefault(axiom.lhs, set()).add(axiom.rhs)
            elif isinstance(axiom.rhs, NegatedConcept) and isinstance(
                axiom.rhs.concept, AtomicConcept
            ):
                disjoint.setdefault(axiom.lhs, set()).add(axiom.rhs.concept)
                disjoint.setdefault(axiom.rhs.concept, set()).add(axiom.lhs)
            elif isinstance(axiom.rhs, (ExistentialRole, QualifiedExistential)):
                participates.setdefault(axiom.lhs, set()).add(str(axiom.rhs))
            elif isinstance(axiom.rhs, AttributeDomain):
                participates.setdefault(axiom.lhs, set()).add(str(axiom.rhs))

    for concept in sorted(tbox.signature.concepts, key=lambda c: c.name):
        lines.append(f"### {concept.name}")
        lines.append("")
        parents = told_parents.get(concept, set())
        if parents:
            lines.append(f"- **asserted subsumers:** {', '.join(_names(parents))}")
        if classification is not None:
            inferred = {
                s
                for s in classification.subsumers(concept, named_only=True)
                if isinstance(s, AtomicConcept) and s != concept
            } - parents
            if inferred:
                lines.append(
                    f"- **inferred subsumers:** {', '.join(_names(inferred))}"
                )
            children = {
                s
                for s in classification.subsumees(concept, named_only=True)
                if isinstance(s, AtomicConcept) and s != concept
            }
            if children:
                lines.append(f"- **subsumees:** {', '.join(_names(children))}")
            if classification.is_unsatisfiable(concept):
                lines.append("- **⚠ unsatisfiable**")
        if concept in participates:
            lines.append(
                f"- **participation:** {', '.join(sorted(participates[concept]))}"
            )
        if concept in disjoint:
            lines.append(
                f"- **disjoint with:** {', '.join(_names(disjoint[concept]))}"
            )
        notes = [
            (axiom, note)
            for axiom, note in sorted(tbox.annotations.items(), key=lambda kv: str(kv[0]))
            if isinstance(axiom, ConceptInclusion) and axiom.lhs == concept
        ]
        for axiom, note in notes:
            lines.append(f"- **design note** (`{axiom}`): {note}")
        lines.append("")

    # -- roles --------------------------------------------------------------------
    if tbox.signature.roles:
        lines += ["## Roles", ""]
        facts = _role_facts(tbox)
        told_role_parents: Dict[AtomicRole, Set[str]] = {}
        for axiom in tbox.role_inclusions:
            if isinstance(axiom.lhs, AtomicRole) and axiom.is_positive:
                told_role_parents.setdefault(axiom.lhs, set()).add(str(axiom.rhs))
        for role in sorted(tbox.signature.roles, key=lambda r: r.name):
            lines.append(f"### {role.name}")
            lines.append("")
            role_facts = facts[role]
            if role_facts["domain"]:
                lines.append(f"- **domain:** {', '.join(sorted(role_facts['domain']))}")
            if role_facts["range"]:
                lines.append(f"- **range:** {', '.join(sorted(role_facts['range']))}")
            if role in told_role_parents:
                lines.append(
                    f"- **subsumed by:** {', '.join(sorted(told_role_parents[role]))}"
                )
            if role_facts["functional"]:
                lines.append(f"- **cardinality:** {', '.join(role_facts['functional'])}")
            lines.append("")

    # -- attributes ------------------------------------------------------------------
    if tbox.signature.attributes:
        lines += ["## Attributes", ""]
        functional_attrs = {
            axiom.attribute
            for axiom in tbox.functionality_assertions
            if isinstance(axiom, FunctionalAttribute)
        }
        domains: Dict[AtomicAttribute, Set[str]] = {}
        for axiom in tbox.concept_inclusions:
            if isinstance(axiom.lhs, AttributeDomain) and isinstance(
                axiom.rhs, AtomicConcept
            ):
                domains.setdefault(axiom.lhs.attribute, set()).add(axiom.rhs.name)
        for attribute in sorted(tbox.signature.attributes, key=lambda a: a.name):
            lines.append(f"### {attribute.name}")
            lines.append("")
            if attribute in domains:
                lines.append(f"- **domain:** {', '.join(sorted(domains[attribute]))}")
            if attribute in functional_attrs:
                lines.append("- **cardinality:** functional (at most one value)")
            lines.append("")

    return "\n".join(lines).rstrip() + "\n"
