"""Mapping management: static analysis of an OBDA specification.

The paper lists "mapping management" among Mastro's services (§2) and
§8 stresses that OBDA construction "poses significant problems in terms
of content handling" best caught early.  This module lints a mapping
collection against the source schema and the ontology **before** any
query runs:

* ``schema`` issues — source queries referencing missing tables or
  columns, templates using columns the source query does not produce;
* ``coverage`` issues — ontology predicates with no mapping (their
  extents will always be empty) and mapped predicates missing from the
  ontology signature (typo-shaped);
* ``semantics`` issues — mappings that populate a predicate the TBox
  classifies as *unsatisfiable* (any row makes the whole KB
  inconsistent), and exact-duplicate assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.classifier import GraphClassifier
from ..dllite.syntax import AtomicAttribute, AtomicConcept, AtomicRole
from ..dllite.tbox import TBox
from ..errors import MappingError
from .mapping import IriTemplate, MappingAssertion, MappingCollection
from .sql.algebra import scans
from .sql.database import Database

__all__ = ["MappingIssue", "analyze_mappings"]


@dataclass(frozen=True)
class MappingIssue:
    """One finding of the analyzer."""

    severity: str  # "error" | "warning"
    category: str  # "schema" | "coverage" | "semantics"
    message: str
    mapping: Optional[str] = None  # assertion identifier, when applicable

    def __str__(self) -> str:
        prefix = f"[{self.severity}/{self.category}]"
        suffix = f" (mapping {self.mapping})" if self.mapping else ""
        return f"{prefix} {self.message}{suffix}"


def _source_output_columns(
    assertion: MappingAssertion, database: Database
) -> Optional[Set[str]]:
    """Column names the source query produces (None if it cannot run)."""
    try:
        result = assertion.evaluate_source(database)
    except MappingError:
        return None
    columns: Set[str] = set()
    for column in result.columns:
        columns.add(column)
        columns.add(column.rsplit(".", 1)[-1])
    return columns


def _predicate_key(predicate) -> Tuple[str, int]:
    """An atomic concept, role or attribute as a mapping keys it."""
    return predicate.name, 1 if isinstance(predicate, AtomicConcept) else 2


def analyze_mappings(
    mappings: MappingCollection,
    database: Database,
    tbox: Optional[TBox] = None,
) -> List[MappingIssue]:
    """Lint *mappings* against *database* (and, optionally, *tbox*)."""
    issues: List[MappingIssue] = []
    seen_assertions: Dict[Tuple, str] = {}

    for index, assertion in enumerate(mappings):
        label = assertion.identifier or f"#{index}"

        # -- schema: tables ------------------------------------------------------
        missing_table = False
        for scan in scans(assertion.source):
            if scan.table not in database:
                issues.append(
                    MappingIssue(
                        "error",
                        "schema",
                        f"source references missing table {scan.table!r}",
                        label,
                    )
                )
                missing_table = True

        # -- schema: columns (source must run, templates must be satisfiable) ----
        if not missing_table:
            columns = _source_output_columns(assertion, database)
            if columns is None:
                issues.append(
                    MappingIssue(
                        "error",
                        "schema",
                        "source query does not evaluate against the schema",
                        label,
                    )
                )
            else:
                for target in assertion.targets:
                    for term in target.terms:
                        needed = (
                            term.placeholders
                            if isinstance(term, IriTemplate)
                            else (term.column,)
                        )
                        for column in needed:
                            if column not in columns:
                                issues.append(
                                    MappingIssue(
                                        "error",
                                        "schema",
                                        f"target {target} needs column "
                                        f"{column!r}, source produces "
                                        f"{sorted(c for c in columns if '.' not in c)}",
                                        label,
                                    )
                                )

        # -- duplicates -------------------------------------------------------------
        key = (assertion.source_text or repr(assertion.source), tuple(
            str(t) for t in assertion.targets
        ))
        if key in seen_assertions:
            issues.append(
                MappingIssue(
                    "warning",
                    "semantics",
                    f"duplicate of mapping {seen_assertions[key]}",
                    label,
                )
            )
        else:
            seen_assertions[key] = label

    # -- coverage and semantics against the ontology -------------------------------
    if tbox is not None:
        # (name, arity) pairs: a concept and a role sharing a name are
        # two predicates
        mapped = mappings.mapped_predicates()
        signature = {_predicate_key(predicate) for predicate in tbox.signature}
        for name, _ in sorted(mapped - signature):
            issues.append(
                MappingIssue(
                    "warning",
                    "coverage",
                    f"mapped predicate {name!r} is not in the ontology signature",
                )
            )
        for name, _ in sorted(signature - mapped):
            issues.append(
                MappingIssue(
                    "warning",
                    "coverage",
                    f"ontology predicate {name!r} has no mapping "
                    f"(its extent is always empty)",
                )
            )
        classification = GraphClassifier().classify(tbox)
        unsat = {
            _predicate_key(node)
            for node in classification.unsatisfiable()
            if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute))
        }
        for name, _ in sorted(mapped & unsat):
            issues.append(
                MappingIssue(
                    "error",
                    "semantics",
                    f"mapping populates unsatisfiable predicate {name!r}: any "
                    f"source row makes the knowledge base inconsistent",
                )
            )
    return issues
