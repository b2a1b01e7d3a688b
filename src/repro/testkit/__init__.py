"""Conformance testkit: the automated correctness substrate of the repo.

The paper's central claim (Theorem 1 + Figure 1) is that graph-based
classification is *sound and complete* while being faster than
tableau/consequence-based engines.  This package checks that claim — and
the agreement of every other engine pair in the stack — mechanically, on
*generated* inputs, with three layers forming an oracle hierarchy:

1. **brute-force semantics** (:mod:`repro.dllite.semantics`) — ground
   truth by finite-model enumeration, only feasible on tiny signatures;
2. **differential** (:mod:`repro.testkit.oracle`) — every registered
   reasoner against every other (classification, Φ_T, Ω_T), PerfectRef
   against Presto, and the SQL paths against the KB-mode executors and
   the naive algebra evaluator, end to end through
   :class:`repro.obda.system.OBDASystem`;
3. **metamorphic** (:mod:`repro.testkit.metamorphic`) — invariants that
   need no oracle at all: renaming, axiom order/duplication, entailed
   additions, module extraction, union monotonicity.

When any check disagrees, the **shrinker** (:mod:`repro.testkit.shrink`)
minimizes the offending ontology deterministically and writes a
reproducer to a regression corpus directory that the normal pytest suite
replays forever after (``tests/regressions/``).

Entry points: ``repro conformance --seed N --rounds K`` on the command
line, or :func:`repro.testkit.conformance.run_conformance` from code.
"""

from .generators import (
    FuzzProfile,
    direct_mapping_system,
    random_abox,
    random_profile_tbox,
    random_queries,
    random_tiny_tbox,
)
from .metamorphic import (
    check_duplication,
    check_entailed_addition,
    check_module_preservation,
    check_order_irrelevance,
    check_renaming,
    check_union_monotonicity,
    run_metamorphic_checks,
)
from .oracle import (
    DEFAULT_ENGINES,
    Disagreement,
    diff_answers,
    diff_backend,
    diff_classifications,
    diff_engines,
    naive_sql_answers,
    semantics_soundness,
)
from .shrink import shrink_axioms, shrink_tbox, write_reproducer
from .conformance import ConformanceConfig, ConformanceReport, run_conformance

__all__ = [
    "ConformanceConfig",
    "ConformanceReport",
    "DEFAULT_ENGINES",
    "Disagreement",
    "FuzzProfile",
    "check_duplication",
    "check_entailed_addition",
    "check_module_preservation",
    "check_order_irrelevance",
    "check_renaming",
    "check_union_monotonicity",
    "diff_answers",
    "diff_backend",
    "diff_classifications",
    "diff_engines",
    "direct_mapping_system",
    "naive_sql_answers",
    "random_abox",
    "random_profile_tbox",
    "random_queries",
    "random_tiny_tbox",
    "run_conformance",
    "run_metamorphic_checks",
    "semantics_soundness",
    "shrink_axioms",
    "shrink_tbox",
    "write_reproducer",
]
