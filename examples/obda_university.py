"""Ontology-Based Data Access end to end (paper §1, §3).

An ontology mediates access to two "legacy" relational sources through
GAV mappings: users query the ontology vocabulary and never see the
tables.  The example shows consistency checking, the four answering
methods (PerfectRef over virtual extents, PerfectRef unfolded to SQL and
joined in memory or pushed down to SQLite, Presto datalog) agreeing, and
what the rewritings and the pushed-down SQL actually look like.

Run with::

    python examples/obda_university.py
"""

from repro.dllite import AtomicConcept, AtomicRole, parse_tbox
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.mapping import IriTemplate

TBOX = parse_tbox(
    """
    role teaches
    Professor isa Teacher
    Lecturer isa Teacher
    Teacher isa Person
    Student isa Person
    Teacher isa exists teaches
    exists teaches isa Teacher
    exists teaches^- isa Course
    Student isa not Teacher
    """,
    name="university",
)


def build_sources() -> Database:
    """Two mismatched legacy schemas — the point of OBDA is hiding them."""
    db = Database("legacy")
    db.create_table(
        "hr_people",
        ["emp_id", "name", "job_code"],
        [
            (1, "Ada", "PROF"),
            (2, "Alan", "PROF"),
            (3, "Grace", "LECT"),
            (4, "Edsger", "ADMIN"),
        ],
    )
    db.create_table(
        "course_assignments",
        ["emp", "course_code"],
        [(1, "LOGIC101"), (2, "COMP301"), (1, "SETS200")],
    )
    db.create_table("registrar", ["student_no"], [(501,), (502,)])
    return db


def build_mappings() -> MappingCollection:
    person = IriTemplate("person/{emp_id}")
    return MappingCollection(
        [
            MappingAssertion(
                "SELECT emp_id FROM hr_people WHERE job_code = 'PROF'",
                [TargetAtom(AtomicConcept("Professor"), (person,))],
                identifier="m1-professors",
            ),
            MappingAssertion(
                "SELECT emp_id FROM hr_people WHERE job_code = 'LECT'",
                [TargetAtom(AtomicConcept("Lecturer"), (person,))],
                identifier="m2-lecturers",
            ),
            MappingAssertion(
                "SELECT emp, course_code FROM course_assignments",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("person/{emp}"), IriTemplate("course/{course_code}")),
                    )
                ],
                identifier="m3-teaching",
            ),
            MappingAssertion(
                "SELECT student_no FROM registrar",
                [TargetAtom(AtomicConcept("Student"), (IriTemplate("person/{student_no}"),))],
                identifier="m4-students",
            ),
        ]
    )


def main() -> None:
    system = OBDASystem(TBOX, mappings=build_mappings(), database=build_sources())

    print("Consistency:", "consistent" if system.is_consistent() else "INCONSISTENT")

    queries = [
        "q(x) :- Person(x)",
        "q(x) :- Teacher(x)",
        "q(y) :- Course(y)",
        "q(x, y) :- teaches(x, y)",
        "q(x) :- Teacher(x), teaches(x, y)",
    ]
    for query in queries:
        print(f"\nQuery: {query}")
        reference = None
        for method in ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto"):
            answers = system.certain_answers(query, method=method)
            rendered = sorted(
                "(" + ", ".join(str(term) for term in answer) + ")"
                for answer in answers
            )
            print(f"  [{method:17s}] {len(answers):2d} answers: {rendered}")
            if reference is None:
                reference = answers
            assert answers == reference, "methods must agree"

    # Peek under the hood: what did the rewriters produce?
    print("\n--- PerfectRef rewriting of q(x) :- Person(x) ---")
    for disjunct in system.rewrite("q(x) :- Person(x)"):
        print(f"  {disjunct}")
    print("\n--- Presto datalog rewriting of the same query ---")
    print(system.rewrite("q(x) :- Person(x)", method="presto"))

    # ... and the SQL perfectref-sqlite ships to its SQLite replica of the
    # sources ("d_<table>", one flat SELECT per conjunctive query).
    from repro.obda import unfold

    unfolded = unfold(system.rewrite("q(x) :- Teacher(x)"), system.mappings)
    print("\n--- statement perfectref-sqlite ships for q(x) :- Teacher(x) ---")
    print(system.sql_backend().sql_for(unfolded))

    # Break the data and watch consistency checking catch it.
    print("\nEnrolling professor Ada as a student (violates Student ⊑ ¬Teacher)...")
    system.database["registrar"].insert((1,))
    for witness in system.inconsistency_witnesses():
        print(f"  witness: {witness}")


if __name__ == "__main__":
    main()
