"""The graphical language (paper §6): author, translate, render, modularize.

Reproduces Figure 2 (the County/State qualified-existential diagram),
writes SVG files, and demonstrates the scalability machinery: horizontal
domain modules, vertical level-of-detail views, and focus views.

Run with::

    python examples/diagram_authoring.py [output-dir]
"""

import sys
from pathlib import Path

from repro.corpus import load_profile
from repro.dllite import AtomicConcept
from repro.graphical import (
    Diagram,
    diagram_to_tbox,
    figure2_diagram,
    focus_view,
    horizontal_modules,
    render_svg,
    tbox_to_diagram,
    vertical_views,
)


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("diagram-output")
    out.mkdir(exist_ok=True)

    # -- Figure 2 -----------------------------------------------------------
    figure2 = figure2_diagram()
    tbox = diagram_to_tbox(figure2)
    print("Figure 2 denotes exactly the paper's assertions:")
    for axiom in tbox:
        print(f"  {axiom}")
    (out / "figure2.svg").write_text(render_svg(figure2, title="Figure 2"))
    print(f"Wrote {out / 'figure2.svg'}")

    # -- author a richer diagram programmatically -----------------------------
    diagram = Diagram("geo")
    for label in ("Municipality", "County", "State", "Region"):
        diagram.concept(label)
    diagram.role("isPartOf")
    diagram.attribute("population")
    domain = diagram.domain_square("isPartOf", filler="State")
    range_ = diagram.range_square("isPartOf", filler="County")
    pop_domain = diagram.domain_square("population")
    diagram.include("Municipality", "County")
    diagram.include("County", domain.id)
    diagram.include("State", range_.id)
    diagram.include("State", "Region")
    diagram.include("County", "State", negated=True)  # disjointness slash
    diagram.include(pop_domain.id, "Municipality")
    geo_tbox = diagram_to_tbox(diagram)
    print(f"\nAuthored diagram 'geo' → {len(geo_tbox)} axioms:")
    for axiom in geo_tbox:
        print(f"  {axiom}")
    (out / "geo.svg").write_text(render_svg(diagram, title="geo"))
    print(f"Wrote {out / 'geo.svg'}")

    # -- and back: TBox → diagram (for ontologies born textual) --------------
    regenerated = tbox_to_diagram(geo_tbox)
    assert set(diagram_to_tbox(regenerated).axioms) == set(geo_tbox.axioms)
    print("Round-trip TBox → diagram → TBox is the identity. ✓")

    # -- scalability: modularize a corpus-sized ontology ----------------------
    big = load_profile("Transportation", scale=0.5)
    print(f"\nModularizing {big.name!r} ({len(big)} axioms)...")
    modules = horizontal_modules(big, max_modules=4)
    print(f"  horizontal: {[len(m) for m in modules]} axioms per domain module")
    views = vertical_views(big)
    print(
        "  vertical:   "
        + ", ".join(f"{v.name.split('-')[-1]}={len(v.signature.concepts)}c" for v in views)
    )
    focus = focus_view(big, AtomicConcept("C5"), radius=2)
    (out / "focus_C5.svg").write_text(render_svg(tbox_to_diagram(focus)))
    print(f"  focus view on C5: {len(focus)} axioms → {out / 'focus_C5.svg'}")


if __name__ == "__main__":
    main()
