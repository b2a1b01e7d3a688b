"""The conformance runner: seeded fuzz rounds over the whole stack.

One *round* is: generate a structured ontology from the round's seed,
run the differential engine oracle and the metamorphic battery on it,
then — on a schedule within the round — the brute-force semantics check
on a tiny sibling ontology and the end-to-end OBDA answer diff
(PerfectRef vs Presto vs unfolded SQL over a direct mapping of a random
ABox that a consistent knowledge base holds, diffed again after a few
assertions are appended, so that the mapped system's extended answers
meet knowledge-base mode's recomputed ones, and then with constants
bound into the queries, so that rewritings bound from a cached one of
the same shape meet a cache-free knowledge base's).  Any disagreement is shrunk
to a minimal reproducer and written to the regression corpus directory.

The runner reuses :class:`repro.runtime.budget.Budget` for bounded
execution: the CI smoke job runs with a ~60s allowance, and a budget
exhaustion mid-campaign is an orderly early stop (``stopped_early``),
not a failure.

Determinism: every round derives its own ``random.Random`` from
``(seed, round_index)``, so a disagreement report names the exact round
seed that replays it — independently of how many rounds ran before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dllite.abox import ABox
from ..dllite.tbox import TBox
from ..errors import TimeoutExceeded
from ..runtime.budget import Budget
from .generators import (
    FuzzProfile,
    append_direct,
    direct_mapping_system,
    random_abox,
    random_appends,
    random_profile_tbox,
    random_queries,
    random_tiny_tbox,
    with_constants,
    with_literal_names,
)
from .metamorphic import run_metamorphic_checks
from .oracle import (
    DEFAULT_ENGINES,
    Disagreement,
    diff_answers,
    diff_backend,
    diff_engines,
    semantics_soundness,
)
from .shrink import shrink_tbox, write_reproducer

__all__ = ["ConformanceConfig", "ConformanceReport", "run_conformance"]


@dataclass(frozen=True)
class ConformanceConfig:
    """One conformance campaign, fully determined by its fields."""

    seed: int = 7
    rounds: int = 25
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    #: seconds for the whole campaign (None = unbounded)
    budget_s: Optional[float] = None
    #: run the exponential finite-model check every Nth round (0 = never)
    semantics_every: int = 2
    #: run the end-to-end OBDA answer diff every Nth round (0 = never)
    obda_every: int = 2
    #: run the five-path backend oracle every Nth round (0 = never)
    backend_every: int = 2
    #: "all" runs the full battery; "backend" runs only the backend
    #: oracle, every round (the sqlite-smoke job)
    mode: str = "all"
    #: where minimized reproducers are written (None = don't write)
    regression_dir: Optional[str] = None
    #: shrink disagreements before reporting (slower, far better reports)
    shrink: bool = True
    profile: FuzzProfile = field(default_factory=FuzzProfile)


@dataclass
class ConformanceReport:
    """What a campaign did and what it found."""

    config: ConformanceConfig
    rounds_run: int = 0
    checks_run: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    reproducers: List[str] = field(default_factory=list)
    stopped_early: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        state = "conformant" if self.ok else f"{len(self.disagreements)} disagreement(s)"
        early = " (stopped early: budget exhausted)" if self.stopped_early else ""
        return (
            f"conformance seed={self.config.seed}: {self.rounds_run} round(s), "
            f"{self.checks_run} check(s), {state}{early} "
            f"in {self.elapsed_s:.1f}s"
        )


def _round_rng(seed: int, round_index: int) -> random.Random:
    return random.Random(f"conformance:{seed}:{round_index}")


def _shrink_and_record(
    report: ConformanceReport,
    config: ConformanceConfig,
    tbox: TBox,
    problems: List[Disagreement],
    check,
    round_index: int,
    budget: Optional[Budget],
) -> None:
    """Record *problems*, minimizing *tbox* under *check* when enabled.

    ``check`` re-runs the failing oracle on a candidate TBox and returns
    the (possibly empty) disagreement list for it.
    """
    report.disagreements.extend(problems)
    if not config.shrink or check is None:
        return
    try:
        minimal = shrink_tbox(tbox, lambda t: bool(check(t)), budget=budget)
    except (ValueError, TimeoutExceeded):
        minimal = tbox  # non-reproducible under re-check or out of time
    minimal_problems = check(minimal) or problems
    if config.regression_dir is not None:
        note_lines = [str(p) for p in minimal_problems[:4]]
        note_lines.append(
            f"seed={config.seed} round={round_index} "
            f"engines={','.join(config.engines)}"
        )
        path = write_reproducer(
            config.regression_dir,
            f"seed{config.seed}-round{round_index}-{minimal_problems[0].kind}",
            minimal,
            note="\n".join(note_lines),
        )
        report.reproducers.append(str(path))


def run_conformance(config: ConformanceConfig) -> ConformanceReport:
    """Run a full campaign; never raises on disagreement (see the report)."""
    overall = Budget(config.budget_s, task=f"conformance:seed{config.seed}")
    report = ConformanceReport(config=config)
    engines = tuple(config.engines)
    for round_index in range(config.rounds):
        if overall.budget_s is not None and (overall.remaining_s or 0) <= 0:
            report.stopped_early = True
            break
        rng = _round_rng(config.seed, round_index)
        try:
            _run_round(report, config, engines, rng, round_index, overall)
        except TimeoutExceeded:
            report.stopped_early = True
            break
        report.rounds_run += 1
    report.elapsed_s = overall.elapsed_s
    return report


def _run_round(
    report: ConformanceReport,
    config: ConformanceConfig,
    engines: Tuple[str, ...],
    rng: random.Random,
    round_index: int,
    budget: Budget,
) -> None:
    if config.mode == "backend":
        # Backend-only campaign: every round diffs the sqlite pushdown,
        # both in-memory SQL paths and both KB-mode rewriters.
        _run_backend_check(report, config, rng, round_index, budget)
        return

    tbox = random_profile_tbox(rng, config.profile)

    # 1. differential: every engine against the complete reference
    problems = diff_engines(tbox, engines, budget=budget)
    report.checks_run += 1
    if problems:
        _shrink_and_record(
            report,
            config,
            tbox,
            problems,
            lambda t: diff_engines(t, engines, budget=budget),
            round_index,
            budget,
        )

    # 2. metamorphic battery (with a second, independent TBox for the
    #    union-monotonicity invariant)
    other = random_profile_tbox(rng, config.profile)
    meta_rng = random.Random(f"meta:{config.seed}:{round_index}")
    problems = run_metamorphic_checks(
        tbox, meta_rng, other=other, budget=budget
    )
    report.checks_run += 1
    if problems:
        # Metamorphic failures depend on (tbox, transform); re-derive the
        # transform from a fresh copy of the same stream while shrinking.
        _shrink_and_record(
            report,
            config,
            tbox,
            problems,
            lambda t: run_metamorphic_checks(
                t,
                random.Random(f"meta:{config.seed}:{round_index}"),
                other=other,
                budget=budget,
            ),
            round_index,
            budget,
        )

    # 3. brute-force finite-model soundness on a tiny sibling ontology
    if config.semantics_every and round_index % config.semantics_every == 0:
        tiny = random_tiny_tbox(rng, config.profile)
        problems = semantics_soundness(tiny, budget=budget)
        report.checks_run += 1
        if problems:
            _shrink_and_record(
                report,
                config,
                tiny,
                problems,
                lambda t: semantics_soundness(t, budget=budget),
                round_index,
                budget,
            )
        # the tiny scale is also where the full engine battery is cheapest
        problems = diff_engines(tiny, engines, budget=budget)
        report.checks_run += 1
        if problems:
            _shrink_and_record(
                report,
                config,
                tiny,
                problems,
                lambda t: diff_engines(t, engines, budget=budget),
                round_index,
                budget,
            )

    # 4. end-to-end OBDA: PerfectRef vs Presto vs unfolded SQL, joined in
    #    memory and pushed down to SQLite, then again after a few appends,
    #    on the same warm systems, and then with constants bound into the
    #    queries, two constants per query shape
    if config.obda_every and round_index % config.obda_every == 0:
        small = random_tiny_tbox(rng, config.profile)
        abox = _consistent_abox(rng, small, config.profile)
        queries = random_queries(rng, small, config.profile)
        if queries:
            append_rng = random.Random(f"append:{config.seed}:{round_index}")
            appends = random_appends(
                append_rng, abox, append_rng.randint(1, 3), queries
            )
            bound = with_constants(
                random.Random(f"constants:{config.seed}:{round_index}"), queries, abox
            )
            problems = _obda_diff(small, abox, queries, appends, bound, budget)
            report.checks_run += 3
            if problems:
                # Answer diffs shrink over the TBox with data, appends and
                # queries held fixed — the bug is almost always in the
                # rewriting.
                _shrink_and_record(
                    report,
                    config,
                    small,
                    problems,
                    lambda t: _obda_diff(t, abox, queries, appends, bound, budget),
                    round_index,
                    budget,
                )

    # 5. backend oracle: the five answering paths over mixed-type data
    if config.backend_every and round_index % config.backend_every == 0:
        _run_backend_check(report, config, rng, round_index, budget)


def _consistent_abox(rng: random.Random, tbox: TBox, profile: FuzzProfile) -> ABox:
    """A random ABox over *tbox* (:func:`random_abox`) less seeded
    assertions, dropped one at a time until the knowledge-base system
    over it is consistent: a diff over an inconsistent knowledge base
    compares consistency verdicts and never reaches an answer."""
    from ..obda.system import OBDASystem

    assertions = sorted(random_abox(rng, tbox, profile), key=str)
    while assertions and not OBDASystem(tbox, abox=ABox(assertions)).is_consistent():
        del assertions[rng.randrange(len(assertions))]
    return ABox(assertions)


#: the methods step 4 diffs; the mapped system extends its answers of
#: all four after the appends, while knowledge-base mode recomputes them
_OBDA_METHODS = ("perfectref", "perfectref-sql", "perfectref-sqlite", "presto")


def _obda_diff(
    tbox: TBox, abox, queries, appends, bound, budget: Budget
) -> List[Disagreement]:
    """Step 4 on *tbox*: diff the answers of *queries* on a knowledge-base
    system over a copy of *abox* and on its direct mapping, then append
    *appends* to both (the copy, and the mapped tables as the mapping
    lowered their rows) and diff again on the same warm systems.  Then
    diff the answers of *bound*, the queries with constants
    (:func:`with_constants`, several versions per shape, so all but the
    first rewrite of a shape bind the cached one), on the warm systems
    and on a cache-free knowledge-base system, which rewrites each
    version anew.  The mapped system's SQLite replica is closed after
    the diffs."""
    from ..obda.system import OBDASystem

    facts = abox.copy()
    systems = {
        "kb": OBDASystem(tbox, abox=facts),
        "sql": direct_mapping_system(tbox, abox),
    }
    try:
        problems = diff_answers(systems, queries, methods=_OBDA_METHODS, budget=budget)
        facts.extend(appends)
        append_direct(systems["sql"], appends)
        problems += diff_answers(systems, queries, methods=_OBDA_METHODS, budget=budget)
        systems["cold"] = OBDASystem(tbox, abox=facts, enable_caches=False)
        return problems + diff_answers(
            systems, bound, methods=_OBDA_METHODS, budget=budget
        )
    finally:
        systems["sql"].sql_backend().close()


def _run_backend_check(
    report: ConformanceReport,
    config: ConformanceConfig,
    rng: random.Random,
    round_index: int,
    budget: Budget,
) -> None:
    """One backend-oracle check: the five answering paths over one ABox
    whose individuals include the literal-looking names ``1``, ``1.0``
    and ``True``, for the drawn queries and then, on the same warm
    systems, for two versions of each with constants among those names
    (so ``1`` and ``'1'`` meet cells of one string form, ``1.0`` its
    own)."""
    small = random_tiny_tbox(rng, config.profile)
    abox = with_literal_names(_consistent_abox(rng, small, config.profile))
    queries = random_queries(rng, small, config.profile)
    if not queries:
        return
    queries = list(queries) + with_constants(
        random.Random(f"backend-constants:{config.seed}:{round_index}"), queries, abox
    )
    problems = diff_backend(small, abox, queries, budget=budget)
    report.checks_run += 1
    if problems:
        # Backend diffs shrink like answer diffs: TBox only, data and
        # queries fixed, so the mistranslated unfolding survives.
        _shrink_and_record(
            report,
            config,
            small,
            problems,
            lambda t: diff_backend(t, abox, queries, budget=budget),
            round_index,
            budget,
        )
