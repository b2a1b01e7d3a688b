"""Cross-module integration tests: the full paper workflow end-to-end.

The paper's methodology (§3) runs: graphical design → translation to
axioms → intensional reasoning (classification) → OBDA services (query
rewriting and answering over mapped sources).  These tests drive that
entire pipeline and cross-validate independent implementations against
each other on randomized inputs.
"""

import random

import pytest

from repro.approximation import (
    OwlOntology,
    semantic_approximation,
)
from repro.approximation.owl import And, OwlClass, Some
from repro.baselines import make_reasoner
from repro.core import classify
from repro.corpus import load_profile
from repro.dllite import (
    ABox,
    AtomicConcept,
    AtomicRole,
    ConceptAssertion,
    Individual,
    RoleAssertion,
    parse_owl_functional,
    parse_tbox,
    serialize_owl_functional,
    serialize_tbox,
)
from repro.graphical import (
    Diagram,
    diagram_to_tbox,
    render_svg,
    tbox_to_diagram,
)
from repro.obda import (
    ABoxExtents,
    Database,
    DatalogExtents,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
    evaluate_ucq,
    parse_query,
    perfect_ref,
    presto_rewrite,
)
from repro.obda.mapping import IriTemplate
from tests.conftest import make_random_tbox


def test_paper_workflow_design_to_query_answers():
    """Steps (i)-(iv) of §3, then query answering, in one pipeline."""
    # (i) design via the graphical language
    diagram = Diagram("geo")
    diagram.concept("County")
    diagram.concept("State")
    diagram.concept("Municipality")
    diagram.role("isPartOf")
    domain = diagram.domain_square("isPartOf", filler="State")
    diagram.include("County", domain.id)
    diagram.include("Municipality", "County")
    diagram.include("County", "State", negated=True)

    # (ii) automated translation into axioms
    tbox = diagram_to_tbox(diagram)
    assert len(tbox) == 3

    # (iv) intensional reasoning for design quality control
    classification = classify(tbox)
    assert classification.unsatisfiable() == set()
    assert classification.subsumes(
        AtomicConcept("County"), AtomicConcept("Municipality")
    )

    # OBDA services over mapped data
    db = Database("geo")
    db.create_table("areas", ["id", "kind"], [(1, "county"), (2, "municipality")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM areas WHERE kind = 'county'",
                [TargetAtom(AtomicConcept("County"), (IriTemplate("area/{id}"),))],
            ),
            MappingAssertion(
                "SELECT id FROM areas WHERE kind = 'municipality'",
                [TargetAtom(AtomicConcept("Municipality"), (IriTemplate("area/{id}"),))],
            ),
        ]
    )
    system = OBDASystem(tbox, mappings=mappings, database=db)
    assert system.is_consistent()
    answers = system.certain_answers("q(x) :- County(x)")
    assert {str(a[0]) for a in answers} == {"area/1", "area/2"}

    # and the diagram still renders
    assert "<svg" in render_svg(diagram)


@pytest.mark.parametrize("seed", range(10))
def test_rewriting_methods_agree_on_random_instances(seed):
    """PerfectRef and Presto compute identical certain answers over a
    random TBox and random ABox (the E3 correctness backbone)."""
    rng = random.Random(seed)
    tbox = make_random_tbox(
        rng, n_concepts=3, n_roles=2, n_axioms=6, negative_fraction=0.0
    )
    abox = ABox()
    individuals = [Individual(f"i{k}") for k in range(4)]
    for _ in range(6):
        if rng.random() < 0.5:
            abox.add(
                ConceptAssertion(
                    AtomicConcept(f"C{rng.randrange(3)}"), rng.choice(individuals)
                )
            )
        else:
            abox.add(
                RoleAssertion(
                    AtomicRole(f"P{rng.randrange(2)}"),
                    rng.choice(individuals),
                    rng.choice(individuals),
                )
            )
    queries = [
        "q(x) :- C0(x)",
        "q(x) :- P0(x, y)",
        "q(x, y) :- P1(x, y)",
        "q(x) :- C1(x), P0(x, y)",
        "q(x) :- P0(x, y), C2(y)",
    ]
    extents = ABoxExtents(abox)
    for query_text in queries:
        query = parse_query(query_text)
        via_pr = evaluate_ucq(perfect_ref(query, tbox), extents)
        datalog = presto_rewrite(query, tbox)
        via_presto = evaluate_ucq(datalog.ucq, DatalogExtents(datalog, extents))
        assert via_pr == via_presto, (query_text, seed)


def test_owl_pipeline_approximate_then_classify_then_serialize():
    """§7 flow: expressive ontology → DL-Lite → classification → OWL file."""
    ontology = OwlOntology(name="expressive")
    ontology.subclass(OwlClass("Professor"), And(OwlClass("Teacher"), Some("teaches", OwlClass("Course"))))
    ontology.range("teaches", OwlClass("Course"))
    ontology.disjoint(OwlClass("Student"), OwlClass("Teacher"))
    tbox = semantic_approximation(ontology)
    classification = classify(tbox)
    assert classification.subsumes(
        AtomicConcept("Teacher"), AtomicConcept("Professor")
    )
    text = serialize_owl_functional(tbox)
    reparsed = parse_owl_functional(text)
    again = classify(reparsed.tbox)
    assert set(again.subsumptions(named_only=True)) == set(
        classification.subsumptions(named_only=True)
    )


def test_corpus_profile_through_all_reasoners_small_scale():
    """A scaled-down Figure 1 row classified identically by every complete
    engine (the benchmark's correctness premise)."""
    tbox = load_profile("Transportation", scale=0.15)
    results = {
        engine: make_reasoner(engine).classify_named(tbox)
        for engine in ("quonto-graph", "tableau-memoized", "tableau-dense")
    }
    reference = results["quonto-graph"]
    for engine, result in results.items():
        assert result.agrees_with(reference), engine


def test_textual_and_graphical_and_owlfs_round_trips_compose(county_tbox):
    """text → TBox → diagram → TBox → OWL/FS → TBox is the identity."""
    diagram = tbox_to_diagram(county_tbox)
    back = diagram_to_tbox(diagram)
    owl_text = serialize_owl_functional(back)
    final = parse_owl_functional(owl_text).tbox
    assert set(final.axioms) == set(county_tbox.axioms)
    text = serialize_tbox(final)
    assert set(parse_tbox(text).axioms) == set(county_tbox.axioms)


def test_sql_unfolding_equals_virtual_extents_on_random_data():
    """The unfolded SQL pipeline and the extent pipeline agree."""
    rng = random.Random(3)
    db = Database()
    rows = [(k, rng.randrange(3)) for k in range(12)]
    db.create_table("links", ["src", "dst"], rows)
    db.create_table("things", ["id"], [(k,) for k in range(12)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT src, dst FROM links",
                [
                    TargetAtom(
                        AtomicRole("P"),
                        (IriTemplate("n/{src}"), IriTemplate("n/{dst}")),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT id FROM things",
                [TargetAtom(AtomicConcept("Thing"), (IriTemplate("n/{id}"),))],
            ),
        ]
    )
    tbox = parse_tbox("role P\nexists P isa Source\nexists P^- isa Target")
    system = OBDASystem(tbox, mappings=mappings, database=db)
    for query_text in (
        "q(x) :- Source(x)",
        "q(y) :- Target(y)",
        "q(x, y) :- P(x, y), Thing(x)",
    ):
        via_extents = system.certain_answers(query_text, method="perfectref")
        via_sql = system.certain_answers(query_text, method="perfectref-sql")
        assert via_extents == via_sql, query_text
