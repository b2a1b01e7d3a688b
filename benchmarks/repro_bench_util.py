"""Shared helpers for the benchmark suite.

Generated corpus TBoxes are cached per (name, scale) so the benchmarks
measure reasoning, not ontology generation.  The cache is bounded: a
parameter sweep over many (name, scale) pairs would otherwise pin every
generated ontology (the large profiles run to hundreds of thousands of
axioms) in memory for the whole session.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=8)
def corpus_tbox(name: str, scale: float = 1.0):
    from repro.corpus import load_profile

    return load_profile(name, scale=scale)
