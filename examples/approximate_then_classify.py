"""Ontology approximation (paper §7): OWL → DL-Lite, then reason.

An expressive (ALCH) ontology is approximated into DL-Lite three ways —
syntactic, semantic per-axiom (the paper's approach), semantic global —
and the results are compared on soundness and entailment recall.  The
winning approximation then flows into the usual DL-Lite pipeline
(classification), closing the §3 workflow.

Run with::

    python examples/approximate_then_classify.py
"""

from repro.approximation import (
    OwlOntology,
    completeness_report,
    semantic_approximation,
    syntactic_approximation,
)
from repro.approximation.owl import And, Or, OwlClass as C, Some
from repro.core import classify


def build_expressive_ontology() -> OwlOntology:
    """A university ontology using constructs DL-Lite cannot say directly."""
    ontology = OwlOntology(name="expressive-university")
    # conjunction on the right: splits into several QL consequences
    ontology.subclass(
        C("Professor"), And(C("Teacher"), C("Employee"), Some("teaches", C("Course")))
    )
    # disjunction on the right: NOT expressible in QL (knowledge loss)
    ontology.subclass(C("Teacher"), Or(C("Tenured"), C("Adjunct")))
    # complex left-hand side: only its QL shadow survives
    ontology.subclass(And(C("Student"), C("Employee")), C("TA"))
    # range + domain axioms
    ontology.domain("teaches", C("Teacher"))
    ontology.range("teaches", C("Course"))
    ontology.range("enrolledIn", C("Course"))
    # universal restriction feeding a qualified existential consequence
    ontology.subclass(C("Freshman"), Some("enrolledIn", C("IntroCourse")))
    ontology.subclass(C("IntroCourse"), C("Course"))
    ontology.disjoint(C("Student"), C("Professor"))
    ontology.subproperty("teaches", "involvedWith")
    return ontology


def main() -> None:
    ontology = build_expressive_ontology()
    print(f"Source (ALCH) ontology — {len(ontology)} axioms:")
    for axiom in ontology:
        print(f"  {axiom}")

    variants = {
        "syntactic": syntactic_approximation(ontology),
        "semantic (per-axiom)": semantic_approximation(ontology),
        "semantic (global)": semantic_approximation(ontology, mode="global"),
    }
    print(f"\n{'variant':24s} {'axioms':>7s} {'sound':>6s} {'recall':>7s}")
    for name, tbox in variants.items():
        report = completeness_report(tbox, ontology)
        print(
            f"{name:24s} {len(tbox):7d} {str(report.is_sound):>6s} "
            f"{report.recall:7.2%}"
        )

    chosen = variants["semantic (per-axiom)"]
    print(f"\nDL-Lite approximation ({chosen.name}):")
    for axiom in sorted(chosen, key=str):
        print(f"  {axiom}")

    classification = classify(chosen)
    print("\nClassification of the approximation (atomic concepts):")
    for axiom in sorted(classification.subsumptions(named_only=True), key=str):
        print(f"  {axiom}")


if __name__ == "__main__":
    main()
