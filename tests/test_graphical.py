"""Unit tests for the graphical language: model, translation, layout, SVG."""

import pytest

from repro.dllite import (
    AtomicAttribute,
    AtomicRole,
    parse_axiom,
    parse_tbox,
)
from repro.errors import DiagramError
from repro.graphical import (
    Diagram,
    diagram_to_tbox,
    figure2_diagram,
    layout,
    render_svg,
    tbox_to_diagram,
)


def test_figure2_translates_to_the_papers_axioms():
    tbox = diagram_to_tbox(figure2_diagram())
    expected = {
        parse_axiom("County isa exists isPartOf . State"),
        parse_axiom("State isa exists isPartOf^- . County"),
    }
    assert set(tbox.axioms) == expected
    # isPartOf is deliberately not typed on County/State (paper remark)
    assert len(tbox) == 2


def test_diagram_round_trip(county_tbox):
    diagram = tbox_to_diagram(county_tbox)
    back = diagram_to_tbox(diagram)
    assert set(back.axioms) == set(county_tbox.axioms)
    assert back.signature == county_tbox.signature


def test_diagram_round_trip_with_attributes(university_tbox):
    diagram = tbox_to_diagram(university_tbox)
    back = diagram_to_tbox(diagram)
    # functionality round-trips as a ≤1 label on the corresponding square
    assert set(back.axioms) == set(university_tbox.axioms)


def test_cardinality_label_denotes_functionality():
    from repro.dllite import FunctionalRole, FunctionalAttribute
    from repro.dllite.syntax import AtomicRole, AtomicAttribute, InverseRole

    diagram = Diagram()
    diagram.role("P")
    diagram.attribute("u")
    diagram.domain_square("P", max_cardinality=1)
    diagram.range_square("P", max_cardinality=1, id="rng")
    diagram.domain_square("u", max_cardinality=1)
    tbox = diagram_to_tbox(diagram)
    assert FunctionalRole(AtomicRole("P")) in tbox
    assert FunctionalRole(InverseRole(AtomicRole("P"))) in tbox
    assert FunctionalAttribute(AtomicAttribute("u")) in tbox


def test_higher_cardinality_rejected_in_dllite_mode():
    diagram = Diagram()
    diagram.role("P")
    diagram.domain_square("P", max_cardinality=3)
    with pytest.raises(DiagramError):
        diagram.validate()


def test_cardinality_label_rendered():
    diagram = Diagram()
    diagram.role("P")
    diagram.domain_square("P", max_cardinality=1)
    svg = render_svg(diagram)
    assert "&#8804;1" in svg


def test_negated_edge_translates_to_disjointness():
    diagram = Diagram()
    diagram.concept("A")
    diagram.concept("B")
    diagram.include("A", "B", negated=True)
    tbox = diagram_to_tbox(diagram)
    assert parse_axiom("A isa not B") in tbox


def test_role_edge_with_inverse_marks():
    diagram = Diagram()
    diagram.role("P")
    diagram.role("R")
    diagram.include("P", "R", source_inverse=True, target_inverse=False)
    tbox = diagram_to_tbox(diagram)
    assert parse_axiom("P^- isa R") in tbox


def test_validation_catches_dangling_square():
    diagram = Diagram()
    diagram.concept("A")
    from repro.graphical.model import RestrictionSquare

    diagram.elements["sq"] = RestrictionSquare("sq", role_id="missing")
    with pytest.raises(DiagramError):
        diagram.validate()


def test_validation_catches_cross_kind_edge():
    diagram = Diagram()
    diagram.concept("A")
    diagram.role("P")
    diagram.include("A", "P")
    with pytest.raises(DiagramError):
        diagram.validate()


def test_validation_rejects_black_square_on_attribute():
    diagram = Diagram()
    diagram.attribute("u")
    from repro.graphical.model import RestrictionSquare

    diagram.elements["sq"] = RestrictionSquare("sq", role_id="u", inverse=True)
    with pytest.raises(DiagramError):
        diagram.validate()


def test_qualified_square_cannot_be_lhs():
    diagram = Diagram()
    diagram.concept("A")
    diagram.concept("B")
    diagram.role("P")
    square = diagram.domain_square("P", filler="B")
    diagram.include(square.id, "A")
    with pytest.raises(DiagramError):
        diagram_to_tbox(diagram)


def test_duplicate_element_ids_rejected():
    diagram = Diagram()
    diagram.concept("A")
    with pytest.raises(DiagramError):
        diagram.concept("A")


def test_layout_layers_subsumers_above():
    tbox = parse_tbox("A isa B\nB isa C")
    diagram = tbox_to_diagram(tbox)
    positions = layout(diagram)
    assert positions["C"][1] < positions["B"][1] < positions["A"][1]


def test_layout_positions_every_element():
    diagram = tbox_to_diagram(parse_tbox("role P\nA isa exists P . B\nA isa C"))
    positions = layout(diagram)
    assert set(positions) == set(diagram.elements)


def test_layout_survives_equivalence_cycles():
    diagram = tbox_to_diagram(parse_tbox("A isa B\nB isa A"))
    positions = layout(diagram)
    assert len(positions) == 2


def test_svg_renders_all_shapes(county_tbox):
    svg = render_svg(tbox_to_diagram(county_tbox), title="county")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<rect" in svg  # concepts + squares
    assert "<polygon" in svg  # role diamonds
    assert "stroke-dasharray" in svg  # dotted links
    assert "marker-end" in svg  # directed edges
    assert "county" in svg


def test_svg_black_and_white_squares():
    svg = render_svg(figure2_diagram())
    assert "fill='#fff'" in svg  # white/domain square
    assert "fill='#333'" in svg  # black/range square


def test_svg_escapes_labels():
    diagram = Diagram()
    diagram.concept("A<B>&C")
    svg = render_svg(diagram)
    assert "A&lt;B&gt;&amp;C" in svg
