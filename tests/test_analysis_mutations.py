"""Seeded mutation tests: each rule pack catches a *historical* bug shape.

Every test takes a real source file that lints clean today, re-plants a
bug pattern this repository actually had (or a one-token slip of the
protocol that guards against it), and asserts the analyzer catches the
mutant.  This is the evidence that the packs encode the codebase's real
protocols rather than toy examples — if a refactor makes a mutation
string stop matching, the test fails loudly on the ``assert old in
source`` precondition, not silently.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_source

SRC = Path("src/repro")


def _findings(label: str, source: str, rule: str):
    return [f for f in analyze_source(label, source) if f.rule == rule]


def _mutate(relative: str, old: str, new: str, rule: str):
    path = SRC / relative
    label = path.as_posix()
    source = path.read_text()
    assert old in source, f"mutation anchor vanished from {relative}: {old!r}"
    before = _findings(label, source, rule)
    after = _findings(label, source.replace(old, new, 1), rule)
    return before, after


def test_rl001_catches_dropped_lock_order_declaration():
    """metrics.reset() nests instrument locks inside the registry lock;
    deleting the declared order must resurface the leaf-lock findings."""
    before, after = _mutate(
        "obs/metrics.py",
        '_LOCK_ORDER = ("self._lock", "counter._lock", "histogram._lock")',
        "_LOCK_ORDER = ()",
        "RL001",
    )
    assert before == []
    assert len(after) == 2
    assert all("nested lock" in f.message for f in after)


def test_rl001_catches_unlocking_a_guarded_read():
    """CacheStats.lookups was a torn read before this PR; reverting the
    fix (dropping the lock) must be caught."""
    before, after = _mutate(
        "perf/cache.py",
        "    @property\n"
        "    def lookups(self) -> int:\n"
        "        with self._lock:\n"
        "            return self.hits + self.misses",
        "    @property\n"
        "    def lookups(self) -> int:\n"
        "        return self.hits + self.misses",
        "RL001",
    )
    assert before == []
    assert len(after) == 1
    assert "torn" in after[0].message


def test_rl002_catches_the_pr7_setdefault_regression():
    """PR 7's stale-shared-index bug: the shared join index was installed
    with setdefault and kept serving pre-mutation rows.  Its successor is
    Table.index; re-planting setdefault there, where a stale entry would
    never be replaced, must trip RL002."""
    before, after = _mutate(
        "obda/sql/table.py",
        "self._indexes[positions] = (now, index)",
        "self._indexes.setdefault(positions, (now, index))",
        "RL002",
    )
    assert before == []
    assert len(after) == 1
    assert "stale" in after[0].message and "PR-7" in after[0].message


def test_rl003_catches_a_scan_that_sheds_its_budget():
    """TableScanNode._execute polls before materializing; removing the
    poll reverts it to an execution node that ignores its deadline."""
    before, after = _mutate(
        "obda/sql/planner.py",
        "    def _execute(self, database, catalog, budget, observed):\n"
        "        if budget is not None:\n"
        "            budget.check()\n"
        "        table = database.table(self.table)",
        "    def _execute(self, database, catalog, budget, observed):\n"
        "        table = database.table(self.table)",
        "RL003",
    )
    assert before == []
    assert len(after) == 1
    assert "never" in after[0].message


def test_rl004_catches_a_degenerate_metric_name():
    """Registry aggregation relies on component.object.event paths;
    collapsing one to a bare word must be flagged."""
    before, after = _mutate(
        "obda/sql/backends.py",
        'metrics.counter("backend.sqlite.executions")',
        'metrics.counter("executions")',
        "RL004",
    )
    assert before == []
    assert len(after) == 1
    assert "convention" in after[0].message


def test_rl005_catches_a_quoting_helper_bypass():
    """Physical table names flow through _quote; concatenating the raw
    mapping-supplied name into DDL reopens identifier injection."""
    before, after = _mutate(
        "obda/sql/backends.py",
        'physical = _quote(f"d_{name}")',
        'physical = "d_" + name',
        "RL005",
    )
    assert before == []
    assert after
    assert "quoting" in after[0].message


@pytest.mark.parametrize(
    "relative",
    [
        "obs/metrics.py",
        "perf/cache.py",
        "obda/sql/stats.py",
        "obda/sql/table.py",
        "obda/sql/planner.py",
    ],
)
def test_mutation_targets_lint_clean_unmutated(relative):
    path = SRC / relative
    assert analyze_source(path.as_posix(), path.read_text()) == []
