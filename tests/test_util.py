"""Unit tests for the timing utilities."""

import time

import pytest

from repro.errors import TimeoutExceeded
from repro.runtime import Budget
from repro.util import format_millis


def test_stopwatch_elapsed_monotone():
    watch = Budget()
    first = watch.elapsed_s
    second = watch.elapsed_s
    assert second >= first >= 0
    assert watch.elapsed_ms >= first * 1000


def test_stopwatch_restart():
    watch = Budget()
    time.sleep(0.01)
    watch.restart()
    assert watch.elapsed_s < 0.01


def test_budget_check():
    watch = Budget(budget_s=1000)
    watch.check()  # well within budget
    tight = Budget(budget_s=0.0)
    time.sleep(0.001)
    with pytest.raises(TimeoutExceeded) as info:
        tight.check()
    assert info.value.budget_s == 0.0
    assert info.value.elapsed_s > 0


def test_no_budget_never_raises():
    watch = Budget()
    watch.check()


def test_format_millis_matches_figure1_style():
    assert format_millis(156.0) == "0.156"
    assert format_millis(4600.0) == "4.600"
    assert format_millis(None) == "timeout"
