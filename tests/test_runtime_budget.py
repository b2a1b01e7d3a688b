"""Unit tests for repro.runtime.budget (Deadline/Budget)."""

import time

import pytest

from repro.errors import TimeoutExceeded
from repro.runtime import Budget, Deadline


def test_deadline_after_and_remaining():
    deadline = Deadline.after(1000.0)
    assert deadline.remaining_s() > 999.0
    assert not deadline.expired()
    past = Deadline.after(-1.0)
    assert past.expired()
    assert past.remaining_s() < 0


def test_unbounded_budget_never_raises():
    budget = Budget(task="free")
    budget.check()
    for _ in range(3000):
        budget.tick()
    assert budget.remaining_s is None
    assert budget.deadline is None
    assert not budget.expired()


def test_exhausted_budget_raises_with_task_name():
    budget = Budget(0.0, task="rewrite:q17")
    time.sleep(0.001)
    with pytest.raises(TimeoutExceeded) as info:
        budget.check()
    assert info.value.task == "rewrite:q17"
    assert "rewrite:q17" in str(info.value)
    assert info.value.budget_s == 0.0
    assert info.value.elapsed_s > 0


def test_tick_amortizes_but_still_fires():
    budget = Budget(0.0, task="hot loop")
    time.sleep(0.001)
    # Fewer than one stride of ticks: no clock poll, no raise.
    for _ in range(Budget.TICK_STRIDE - 1):
        budget.tick()
    with pytest.raises(TimeoutExceeded):
        budget.tick()  # stride boundary reached -> real check


def test_scoped_shares_the_allowance():
    budget = Budget(1000.0, task="parent")
    time.sleep(0.002)
    child = budget.scoped("child phase")
    # Same clock: the child's elapsed time includes the parent's.
    assert child.elapsed_s >= 0.002
    assert child.budget_s == 1000.0
    assert child.task == "child phase"
    starved = Budget(0.0, task="parent")
    time.sleep(0.001)
    with pytest.raises(TimeoutExceeded) as info:
        starved.scoped("inner").check()
    assert info.value.task == "inner"


def test_ensure_coerces_loose_inputs():
    assert Budget.ensure(None) is None
    from_seconds = Budget.ensure(5, task="named")
    assert isinstance(from_seconds, Budget)
    assert from_seconds.budget_s == 5.0
    assert from_seconds.task == "named"
    existing = Budget(1.0, task="original")
    assert Budget.ensure(existing, task="ignored") is existing


def test_deadline_property_tracks_allowance():
    budget = Budget(100.0, task="t")
    deadline = budget.deadline
    assert 99.0 < deadline.remaining_s() <= 100.0


def test_restart_resets_clock_and_ticks():
    budget = Budget(0.05, task="t")
    time.sleep(0.002)
    budget.restart()
    assert budget.elapsed_s < 0.002
    budget.check()

