"""Quickstart: author a DL-Lite ontology, classify it, ask questions.

Run with::

    python examples/quickstart.py
"""

from repro import classify, parse_axiom, parse_tbox
from repro.core import ImplicationChecker
from repro.dllite import AtomicConcept

ONTOLOGY = """
# A small university ontology in the textual DL-Lite syntax.
role teaches, attends
attribute salary

Professor isa Teacher
AssociateProfessor isa Professor
Teacher isa Person
Student isa Person

Teacher isa exists teaches            # every teacher teaches something
exists teaches isa Teacher            # only teachers teach
exists teaches^- isa Course           # whatever is taught is a course
Student isa exists attends . Course   # students attend some course

domain(salary) isa Employee
Professor isa domain(salary)
Employee isa Person

Student isa not Teacher               # disjointness
funct salary                          # at most one salary
"""


def main() -> None:
    tbox = parse_tbox(ONTOLOGY, name="university")
    print(f"Parsed {tbox.name!r}: {tbox.stats()}\n")

    # -- classification (the paper's graph-based technique) ------------------
    classification = classify(tbox)
    print("Classification (subsumptions between names):")
    for axiom in sorted(classification.subsumptions(named_only=True), key=str):
        print(f"  {axiom}")
    print(f"\nUnsatisfiable predicates: {classification.unsatisfiable() or 'none'}")

    # -- targeted queries ------------------------------------------------------
    professor = AtomicConcept("Professor")
    print(f"\nSubsumers of {professor}:")
    for superior in sorted(classification.subsumers(professor), key=str):
        print(f"  {professor} ⊑ {superior}")

    # -- logical implication (T ⊨ α) -------------------------------------------
    checker = ImplicationChecker(classification)
    questions = [
        "AssociateProfessor isa Person",
        "AssociateProfessor isa exists teaches . Course",
        "Student isa not AssociateProfessor",
        "Person isa Teacher",
    ]
    print("\nLogical implication:")
    for question in questions:
        verdict = "yes" if checker.entails(parse_axiom(question)) else "no"
        print(f"  T ⊨ {question} ?  {verdict}")

    # -- the taxonomy, as a tree ----------------------------------------------
    print("\nDirect concept taxonomy (Hasse edges):")
    for child, parent in classification.direct_subsumptions():
        child_names = "/".join(sorted(str(c) for c in child))
        parent_names = "/".join(sorted(str(p) for p in parent))
        print(f"  {child_names}  →  {parent_names}")


if __name__ == "__main__":
    main()
