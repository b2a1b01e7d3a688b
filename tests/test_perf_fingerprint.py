"""TBox fingerprinting and classification memoization (repro.perf)."""

from __future__ import annotations

from repro.dllite import parse_axiom, parse_tbox
from repro.dllite.abox import ABox, ConceptAssertion, Individual
from repro.dllite.syntax import AtomicConcept
from repro.obda import OBDASystem
from repro.perf import ClassificationCache, tbox_fingerprint

TBOX_TEXT = """
role teaches
Professor isa Teacher
Teacher isa Person
Teacher isa exists teaches
exists teaches^- isa Course
Student isa not Teacher
"""


def test_fingerprint_is_stable_across_calls():
    tbox = parse_tbox(TBOX_TEXT)
    assert tbox_fingerprint(tbox) == tbox_fingerprint(tbox)


def test_fingerprint_ignores_axiom_order():
    lines = [line for line in TBOX_TEXT.strip().splitlines()]
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    assert tbox_fingerprint(parse_tbox(TBOX_TEXT)) == tbox_fingerprint(
        parse_tbox("\n".join(shuffled))
    )


def test_fingerprint_distinguishes_structural_change():
    base = parse_tbox(TBOX_TEXT)
    extended = parse_tbox(TBOX_TEXT + "\nCourse isa Offering\n")
    assert tbox_fingerprint(base) != tbox_fingerprint(extended)


def test_fingerprint_memo_invalidated_by_mutation():
    tbox = parse_tbox(TBOX_TEXT)
    before = tbox_fingerprint(tbox)
    tbox.add(parse_axiom("Course isa Offering"))
    after = tbox_fingerprint(tbox)
    assert before != after
    # declaring a genuinely new predicate is also structural
    tbox.declare(AtomicConcept("Workshop"))
    assert tbox_fingerprint(tbox) != after


def test_classification_cache_shares_across_equal_tboxes():
    cache = ClassificationCache()
    first = cache.classify(parse_tbox(TBOX_TEXT))
    second = cache.classify(parse_tbox(TBOX_TEXT))
    assert first is second
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def _system(tbox, cache):
    abox = ABox()
    abox.add(ConceptAssertion(AtomicConcept("Professor"), Individual("ada")))
    return OBDASystem(tbox, abox=abox, classification_cache=cache)


def test_systems_sharing_an_ontology_classify_once():
    cache = ClassificationCache()
    one = _system(parse_tbox(TBOX_TEXT), cache)
    two = _system(parse_tbox(TBOX_TEXT), cache)
    assert one.classification is two.classification
    assert len(cache) == 1


def test_tbox_mutation_invalidates_system_classification():
    cache = ClassificationCache()
    system = _system(parse_tbox(TBOX_TEXT), cache)
    before = system.classification
    assert before.subsumes(AtomicConcept("Person"), AtomicConcept("Teacher"))
    system.tbox.add(parse_axiom("Course isa Offering"))
    after = system.classification
    assert after is not before
    assert after.subsumes(AtomicConcept("Offering"), AtomicConcept("Course"))
