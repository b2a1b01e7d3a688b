"""Unit tests for modularization and relevant-context extraction (§6)."""

import pytest

from repro.dllite import AtomicConcept, parse_tbox
from repro.errors import UnknownPredicate
from repro.graphical import (
    focus_view,
    horizontal_modules,
    relevant_context,
    taxonomy_depths,
    vertical_views,
)

TWO_DOMAINS = """
role teaches, flies
Professor isa Teacher
Teacher isa exists teaches
exists teaches^- isa Course
Pilot isa exists flies
exists flies^- isa Aircraft
Aircraft isa Vehicle
"""


def test_horizontal_modules_split_domains():
    tbox = parse_tbox(TWO_DOMAINS)
    modules = horizontal_modules(tbox)
    assert len(modules) == 2
    names = [
        {c.name for c in module.signature.concepts} for module in modules
    ]
    assert {"Professor", "Teacher", "Course"} in names
    assert {"Pilot", "Aircraft", "Vehicle"} in names


def test_modules_preserve_all_axioms():
    tbox = parse_tbox(TWO_DOMAINS)
    modules = horizontal_modules(tbox)
    union = {axiom for module in modules for axiom in module}
    assert union == set(tbox.axioms)


def test_max_modules_merges_smallest():
    tbox = parse_tbox(
        "A1 isa B1\nA2 isa B2\nA3 isa B3\nA4 isa B4"
    )
    modules = horizontal_modules(tbox, max_modules=2)
    assert len(modules) == 2
    union = {axiom for module in modules for axiom in module}
    assert union == set(tbox.axioms)


def test_taxonomy_depths():
    depths = taxonomy_depths(parse_tbox("A isa B\nB isa C\nD isa C"))
    by_name = {concept.name: depth for concept, depth in depths.items()}
    assert by_name == {"C": 0, "B": 1, "D": 1, "A": 2}


def test_taxonomy_depths_handles_cycles():
    tbox = parse_tbox("A isa B\nB isa A")
    depths = taxonomy_depths(tbox)
    # terminates, covers both concepts, and is deterministic
    assert len(depths) == 2
    assert depths == taxonomy_depths(tbox)
    assert all(depth <= 2 for depth in depths.values())


def test_vertical_views_grow():
    tbox = parse_tbox("A isa B\nB isa C\nX isa C")
    views = vertical_views(tbox, levels=[0, 1, 2])
    sizes = [len(view.signature.concepts) for view in views]
    assert sizes == sorted(sizes)
    assert sizes[0] == 1  # only the root C
    assert sizes[-1] == 4
    # the most detailed view carries all concept axioms
    assert set(views[-1].axioms) == set(tbox.axioms)


def test_vertical_views_default_levels():
    tbox = parse_tbox("A isa B\nB isa C")
    views = vertical_views(tbox)
    assert len(views) >= 2


def test_relevant_context_distances(county_tbox):
    context = relevant_context(county_tbox, AtomicConcept("Municipality"), radius=1)
    names = {str(p): d for p, d in context.items()}
    assert names["Municipality"] == 0
    assert names["County"] == 1
    assert "State" not in names
    wide = relevant_context(county_tbox, AtomicConcept("Municipality"), radius=2)
    assert any(str(p) == "State" for p in wide)


def test_focus_view_projects_axioms(county_tbox):
    view = focus_view(county_tbox, AtomicConcept("County"), radius=1)
    assert all(
        "Municipality" in str(axiom)
        or "County" in str(axiom)
        for axiom in view
    ) or len(view) > 0
    assert len(view) <= len(county_tbox)


def test_focus_on_unknown_predicate():
    with pytest.raises(UnknownPredicate):
        relevant_context(parse_tbox("A isa B"), AtomicConcept("Zed"))
