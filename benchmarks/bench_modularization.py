"""Benchmark E7 — modularization and relevant-context scalability (§6).

Measures the horizontal split, the vertical level-of-detail views and
the focus-view extraction on the deep FMA-shaped corpus row — the
machinery the paper proposes precisely because full-ontology diagrams do
not scale.
"""

from __future__ import annotations

from repro.dllite import AtomicConcept
from repro.graphical import focus_view, horizontal_modules, vertical_views
from repro_bench_util import corpus_tbox


def _multi_domain_tbox():
    """Three corpus profiles merged into one multi-domain ontology —
    the horizontal split must recover the domains."""
    import dataclasses

    from repro.corpus import PROFILES, generate
    from repro.dllite import TBox

    merged = TBox(name="enterprise-multi-domain")
    for name, prefix in (
        ("Mouse", "anatomy_"),
        ("Transportation", "transport_"),
        ("AEO", "events_"),
    ):
        part = generate(
            dataclasses.replace(PROFILES[name], name_prefix=prefix), scale=0.5
        )
        merged.extend(part.axioms)
        for predicate in part.signature:
            merged.declare(predicate)
    return merged


def test_horizontal_modularization(benchmark):
    tbox = _multi_domain_tbox()
    modules = benchmark.pedantic(
        lambda: horizontal_modules(tbox),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["module_sizes"] = [len(m) for m in modules]
    assert sum(len(m) for m in modules) == len(tbox)
    # the three source domains are recovered as the three largest modules
    assert sum(1 for m in modules if len(m) > 0) == 3


def test_vertical_views(benchmark):
    tbox = corpus_tbox("FMA 1.4", 1.0)
    views = benchmark.pedantic(
        lambda: vertical_views(tbox), rounds=1, iterations=1, warmup_rounds=0
    )
    sizes = [len(view.signature.concepts) for view in views]
    benchmark.extra_info["view_sizes"] = sizes
    assert sizes == sorted(sizes)


def test_focus_view_extraction(benchmark):
    tbox = corpus_tbox("FMA 1.4", 1.0)
    view = benchmark.pedantic(
        lambda: focus_view(tbox, AtomicConcept("C100"), radius=2),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["context_axioms"] = len(view)
    assert len(view) < len(tbox)
