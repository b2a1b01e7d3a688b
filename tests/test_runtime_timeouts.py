"""Timeout-path coverage for every classification engine.

Two properties, asserted per engine in the registry:

1. **Prompt abort** — under a tiny budget an engine either returns
   within the budget or raises :class:`TimeoutExceeded` within a small
   tolerance (no runaway loops between budget polls, no result past the
   budget).  Which of the two happens depends on the host's speed.
2. **Never a silent partial result** — under a generous budget the
   engine returns *exactly* what it returns unbudgeted; a budget either
   aborts with an exception or has no effect on the answer.

The (profile, scale) pairs are calibrated so the workload saturates the
budget for that engine while loading stays cheap.
"""

import time

import pytest

from repro.baselines import REASONER_FACTORIES, make_reasoner
from repro.corpus import load_profile
from repro.dllite import parse_tbox
from repro.errors import TimeoutExceeded
from repro.runtime import Budget
from tests.conftest import fig1_texts

TINY_BUDGET_S = 0.01
#: Generous CI tolerance on abort latency (measured worst case: ~0.09s).
ABORT_TOLERANCE_S = 1.5

#: Per-engine workloads large enough that 10ms is never sufficient.
ABORT_CASES = [
    ("quonto-graph", "FMA 3.2.1", 1.0),
    ("cb-consequence", "FMA 3.2.1", 1.0),
    ("saturation", "Galen", 0.1),
    ("tableau-pairwise", "Galen", 0.4),
    ("tableau-memoized", "Galen", 0.4),
    ("tableau-dense", "Galen", 0.4),
    ("fallback-chain", "Galen", 0.4),
]


def test_every_registered_engine_has_an_abort_case():
    assert {engine for engine, _, _ in ABORT_CASES} == set(REASONER_FACTORIES)


@pytest.mark.parametrize("engine,profile,scale", ABORT_CASES)
def test_tiny_budget_aborts_promptly(engine, profile, scale):
    tbox = load_profile(profile, scale=scale)
    reasoner = make_reasoner(engine)
    watch = Budget(TINY_BUDGET_S, task=f"{engine} on {profile}")
    started = time.monotonic()
    try:
        reasoner.classify_named(tbox, watch=watch)
    except TimeoutExceeded as error:
        elapsed = time.monotonic() - started
        assert elapsed <= TINY_BUDGET_S + ABORT_TOLERANCE_S, (
            f"{engine} took {elapsed:.2f}s to notice a {TINY_BUDGET_S}s budget"
        )
        assert error.budget_s == TINY_BUDGET_S
        assert error.task  # the error names the overrunning task
    else:
        # a fast host may finish inside the budget; a result after it is
        # an overrun the engine did not notice
        elapsed = time.monotonic() - started
        assert elapsed <= TINY_BUDGET_S, (
            f"{engine} returned after {elapsed:.3f}s, past its {TINY_BUDGET_S}s budget"
        )


def test_graph_reasoner_polls_while_materializing_subsumptions():
    """FMA 2.0 of the seed-1 Figure-1 benchmark (scale 0.5) classifies in
    tens of milliseconds but has ~4M named subsumptions to materialize,
    which takes tens of seconds: the budget runs out while they are."""
    text = fig1_texts(1, profiles=("FMA 2.0",))["FMA 2.0"]
    tbox = parse_tbox(text, name="FMA 2.0")
    budget_s = 1.0
    watch = Budget(budget_s, task="quonto-graph on FMA 2.0")
    started = time.monotonic()
    with pytest.raises(TimeoutExceeded) as info:
        make_reasoner("quonto-graph").classify_named(tbox, watch=watch)
    elapsed = time.monotonic() - started
    assert elapsed <= budget_s + ABORT_TOLERANCE_S, (
        f"quonto-graph took {elapsed:.2f}s to notice a {budget_s}s budget"
    )
    assert info.value.budget_s == budget_s


@pytest.fixture(scope="module")
def mouse():
    # Small enough that every engine finishes unbudgeted in ~0.1s.
    return load_profile("Mouse", scale=0.3)


@pytest.mark.parametrize("engine", sorted(REASONER_FACTORIES))
def test_generous_budget_never_changes_the_answer(engine, mouse):
    import warnings

    reasoner = make_reasoner(engine)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fallback chains may flag degraded
        unbudgeted = reasoner.classify_named(mouse, watch=None)
        budgeted = make_reasoner(engine).classify_named(
            mouse, watch=Budget(60.0, task=f"{engine} on mouse")
        )
    assert budgeted.agrees_with(unbudgeted)
    assert len(budgeted) > 0
