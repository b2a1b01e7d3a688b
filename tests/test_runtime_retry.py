"""Unit tests for repro.runtime.retry (policy, wrappers, determinism)."""

import time

import pytest

from repro.errors import (
    PermanentSourceError,
    TimeoutExceeded,
    TransientSourceError,
)
from repro.obda.evaluation import ExtentProvider
from repro.obda.sql.database import Database
from repro.runtime import Budget, RetryingDatabase, RetryingExtents, RetryPolicy


def recording_policy(**kwargs):
    """A policy whose sleeps are recorded instead of waited out."""
    slept = []
    policy = RetryPolicy(sleep=slept.append, **kwargs)
    return policy, slept


class FlakyFn:
    """Fails with the given errors in order, then returns ``value``."""

    def __init__(self, errors, value="ok"):
        self.errors = list(errors)
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.value


# -- the policy itself ---------------------------------------------------------


def test_delays_grow_exponentially_and_cap_without_jitter():
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
    assert policy.delay_s(1) == pytest.approx(0.1)
    assert policy.delay_s(2) == pytest.approx(0.2)
    assert policy.delay_s(3) == pytest.approx(0.4)
    assert policy.delay_s(4) == pytest.approx(0.5)  # capped
    assert policy.delay_s(9) == pytest.approx(0.5)


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=42)
    first = policy.delay_s(1, task="extent:Person")
    again = policy.delay_s(1, task="extent:Person")
    assert first == again  # same (seed, task, attempt) -> same delay
    assert 0.05 <= first <= 0.1  # raw * (1 - jitter) <= delay <= raw
    other_task = policy.delay_s(1, task="extent:Course")
    other_seed = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=43).delay_s(
        1, task="extent:Person"
    )
    assert first != other_task
    assert first != other_seed


def test_recovers_after_transient_failures_and_sleeps_the_schedule():
    policy, slept = recording_policy(max_attempts=4, base_delay_s=0.01, jitter=0.0)
    fn = FlakyFn([TransientSourceError("blip"), TransientSourceError("blip")])
    assert policy.call(fn, task="extent:Person") == "ok"
    assert fn.calls == 3
    assert slept == [pytest.approx(0.01), pytest.approx(0.02)]


def test_non_retryable_errors_propagate_immediately():
    policy, slept = recording_policy(max_attempts=5)
    fn = FlakyFn([ValueError("a bug, not an outage")])
    with pytest.raises(ValueError):
        policy.call(fn, task="extent:Person")
    assert fn.calls == 1
    assert slept == []


def test_exhaustion_raises_typed_permanent_error_with_cause():
    policy, _ = recording_policy(max_attempts=3, base_delay_s=0.0)
    fn = FlakyFn([TransientSourceError(f"blip {i}") for i in range(10)])
    with pytest.raises(PermanentSourceError) as info:
        policy.call(fn, task="extent:Person")
    assert fn.calls == 3  # the full attempt allowance, no more
    assert "extent:Person" in str(info.value)
    assert isinstance(info.value.__cause__, TransientSourceError)


def test_permanent_source_error_is_not_retried():
    policy, slept = recording_policy(max_attempts=5)
    fn = FlakyFn([PermanentSourceError("source is gone")])
    with pytest.raises(PermanentSourceError):
        policy.call(fn, task="t")
    assert fn.calls == 1
    assert slept == []


def test_budget_caps_the_backoff_delay():
    policy, slept = recording_policy(
        max_attempts=3, base_delay_s=10.0, jitter=0.0
    )
    budget = Budget(0.05, task="t")
    fn = FlakyFn([TransientSourceError("blip")])
    assert policy.call(fn, task="t", budget=budget) == "ok"
    assert len(slept) == 1
    assert slept[0] <= 0.05  # never sleep past the deadline


def test_exhausted_budget_raises_timeout_not_retry():
    policy, slept = recording_policy(max_attempts=5)
    budget = Budget(0.0, task="query q")
    time.sleep(0.001)
    fn = FlakyFn([])
    with pytest.raises(TimeoutExceeded) as info:
        policy.call(fn, task="t", budget=budget)
    assert info.value.task == "query q"
    assert fn.calls == 0  # checked before the attempt
    assert slept == []


# -- the wrappers --------------------------------------------------------------


class FlakyExtents(ExtentProvider):
    def __init__(self, fail_times):
        self.remaining_failures = fail_times
        self.calls = 0

    def extent(self, predicate, arity):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise TransientSourceError(f"{predicate}: blip")
        return {("a",), ("b",)}


def test_retrying_extents_recovers():
    policy, _ = recording_policy(max_attempts=4, base_delay_s=0.0)
    inner = FlakyExtents(fail_times=2)
    provider = RetryingExtents(inner, policy)
    assert provider.extent("Person", 1) == {("a",), ("b",)}
    assert inner.calls == 3


def test_retrying_extents_retries_a_pull_inside_index():
    policy, _ = recording_policy(max_attempts=4, base_delay_s=0.0)
    inner = FlakyExtents(fail_times=2)
    index = RetryingExtents(inner, policy).table("Person", 1).index((0,))
    assert sorted(index) == [("a",), ("b",)]
    assert inner.calls == 3


def test_retrying_extents_exhaustion_is_typed():
    policy, _ = recording_policy(max_attempts=2, base_delay_s=0.0)
    provider = RetryingExtents(FlakyExtents(fail_times=99), policy)
    with pytest.raises(PermanentSourceError) as info:
        provider.extent("Person", 1)
    assert "extent:Person" in str(info.value)


class FlakyDatabase(Database):
    def __init__(self, fail_times):
        super().__init__(name="flaky")
        self.create_table("t", ["a"], [(1,)])
        self.remaining_failures = fail_times
        self.calls = 0

    def table(self, name):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise TransientSourceError(f"{name}: connection reset")
        return super().table(name)


def test_retrying_database_recovers_and_shares_registry():
    policy, _ = recording_policy(max_attempts=4, base_delay_s=0.0)
    inner = FlakyDatabase(fail_times=2)
    db = RetryingDatabase(inner, policy)
    assert "t" in db  # registry shared with the inner database
    assert list(db.table("t").rows) == [(1,)]
    assert inner.calls == 3


def test_database_with_retry_convenience():
    policy, _ = recording_policy(max_attempts=3, base_delay_s=0.0)
    inner = FlakyDatabase(fail_times=1)
    db = inner.with_retry(policy)
    assert isinstance(db, RetryingDatabase)
    assert list(db.table("t").rows) == [(1,)]
