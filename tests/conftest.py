"""Shared fixtures and random-ontology helpers for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.dllite import (
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    ExistentialRole,
    InverseRole,
    NegatedRole,
    QualifiedExistential,
    RoleInclusion,
    TBox,
    negate,
    parse_tbox,
)


def make_random_tbox(
    rng: random.Random,
    n_concepts: int = 4,
    n_roles: int = 2,
    n_axioms: int = 8,
    negative_fraction: float = 0.2,
    qualified_fraction: float = 0.25,
) -> TBox:
    """A small random DL-Lite_R TBox (used by the cross-check tests)."""
    concepts = [AtomicConcept(f"C{i}") for i in range(n_concepts)]
    roles = [AtomicRole(f"P{i}") for i in range(n_roles)]
    basic_roles = roles + [InverseRole(role) for role in roles]
    basics = concepts + [ExistentialRole(role) for role in basic_roles]
    tbox = TBox()
    for concept in concepts:
        tbox.declare(concept)
    for role in roles:
        tbox.declare(role)
    for _ in range(n_axioms):
        if rng.random() < 0.65 or not basic_roles:
            lhs = rng.choice(basics)
            draw = rng.random()
            if draw < negative_fraction:
                tbox.add(ConceptInclusion(lhs, negate(rng.choice(basics))))
            elif draw < negative_fraction + qualified_fraction:
                tbox.add(
                    ConceptInclusion(
                        lhs,
                        QualifiedExistential(
                            rng.choice(basic_roles), rng.choice(concepts)
                        ),
                    )
                )
            else:
                tbox.add(ConceptInclusion(lhs, rng.choice(basics)))
        else:
            first, second = rng.choice(basic_roles), rng.choice(basic_roles)
            if rng.random() < negative_fraction:
                tbox.add(RoleInclusion(first, NegatedRole(second)))
            else:
                tbox.add(RoleInclusion(first, second))
    return tbox


HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "harness"


def fig1_texts(seed: int, **options) -> dict:
    """Profile name -> serialized TBox, as the ``fig1-classify`` benchmark
    workload generates them for *seed* (*options* go to its constructor)."""
    sys.path.insert(0, str(HARNESS))
    try:
        import workloads
    finally:
        sys.path.remove(str(HARNESS))
    return workloads.Fig1Classify(**options).make_inputs(seed)["texts"]


@pytest.fixture
def county_tbox() -> TBox:
    """The paper's Figure 2 axioms plus a small surrounding hierarchy."""
    return parse_tbox(
        """
        role isPartOf, locatedIn
        County isa exists isPartOf . State
        State isa exists isPartOf^- . County
        isPartOf isa locatedIn
        Municipality isa County
        County isa not State
        """
    )


@pytest.fixture
def university_tbox() -> TBox:
    return parse_tbox(
        """
        role teaches, attends
        attribute salary
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches isa Teacher
        exists teaches^- isa Course
        domain(salary) isa Employee
        Professor isa domain(salary)
        Student isa not Teacher
        funct salary
        """
    )
