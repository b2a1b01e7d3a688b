"""The ``repro`` command-line interface.

Subcommands cover the workflow steps of the paper's methodology (§3):

* ``classify`` — graph-based classification: statistics, unsatisfiable
  predicates, and optionally the full subsumption list;
* ``implication`` — decide ``T ⊨ α`` for an axiom given on the command line;
* ``rewrite`` — PerfectRef or Presto rewriting of a conjunctive query;
* ``render`` — translate an ontology to the §6 graphical language and
  emit SVG;
* ``doc`` — generate Markdown documentation (§8);
* ``diff`` — syntactic + semantic diff of two ontology versions
  (``--check`` fails the build on breaking changes);
* ``lint`` — design-quality checks (unsatisfiable predicates, unused
  declarations);
* ``corpus`` — materialize one of the Figure 1 benchmark ontologies;
* ``figure1`` — run the full Figure 1 grid (same as ``python -m repro.figure1``);
* ``explain`` — answer one query with tracing on and print the nested
  span tree (classify → rewrite → unfold → sql-eval) with per-span wall
  times, cache outcomes and the metrics snapshot (``--json`` exports the
  trace as JSON-lines, ``--check`` validates it structurally);
* ``soak`` — seeded chaos-soak drill: hammer one OBDA system from
  worker threads with mixed queries, updates and injected faults, then
  verify zero lost updates, zero stale answers, zero deadlocks and zero
  worker errors (non-zero exit on any violation; ``--json`` exports the
  full report).

The global ``-v/--verbose`` flag turns on the library's stdlib logging
(``-v`` = INFO, ``-vv`` = DEBUG) on the ``repro`` logger hierarchy.

Ontology files may be in the textual DL-Lite syntax or OWL 2 QL
functional-style syntax (sniffed from the content).

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import GraphClassifier, ImplicationChecker
from .dllite import parse_axiom, parse_owl_functional, parse_tbox
from .dllite.tbox import TBox
from .errors import ReproError

__all__ = ["main", "load_ontology_file"]


def load_ontology_file(path: str) -> TBox:
    """Read a TBox from a file in either supported syntax."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith(("Prefix(", "Ontology(")):
        return parse_owl_functional(text, name=Path(path).stem).tbox
    return parse_tbox(text, name=Path(path).stem)


def _cmd_classify(args) -> int:
    from .obs.trace import Tracer, use_tracer
    from .runtime import Budget

    tbox = load_ontology_file(args.ontology)
    classifier = GraphClassifier(closure_algorithm=args.closure)
    watch = (
        Budget(args.budget, task=f"classify {tbox.name}") if args.budget else None
    )
    tracer = Tracer(f"classify {tbox.name}")
    with use_tracer(tracer):
        classification = classifier.classify(tbox, watch=watch)
    phase_ms = {span.name: span.elapsed_s * 1000 for span in tracer.spans}
    stats = tbox.stats()
    print(f"ontology:  {tbox.name}")
    print(
        f"signature: {stats['concepts']} concepts, {stats['roles']} roles, "
        f"{stats['attributes']} attributes"
    )
    print(f"axioms:    {stats['axioms']}")
    print(
        f"timings:   build {phase_ms['classify.digraph']:.1f}ms, "
        f"closure {phase_ms['classify.closure']:.1f}ms, "
        f"computeUnsat {phase_ms['classify.unsat']:.1f}ms"
    )
    print(f"subsumptions (named, non-trivial): {classification.subsumption_count()}")
    unsat = sorted(str(node) for node in classification.unsatisfiable())
    print(f"unsatisfiable: {', '.join(unsat) if unsat else 'none'}")
    if args.list:
        for axiom in sorted(classification.subsumptions(named_only=True), key=str):
            print(f"  {axiom}")
    return 0


def _cmd_implication(args) -> int:
    tbox = load_ontology_file(args.ontology)
    checker = ImplicationChecker.for_tbox(tbox)
    axiom = parse_axiom(args.axiom)
    entailed = checker.entails(axiom)
    print(f"T ⊨ {axiom} ?  {'yes' if entailed else 'no'}")
    return 0 if entailed else 1


def _cmd_rewrite(args) -> int:
    from .obda import parse_query, perfect_ref, presto_rewrite
    from .runtime import Budget

    tbox = load_ontology_file(args.ontology)
    query = parse_query(args.query)
    budget = (
        Budget(args.budget, task=f"rewrite:{query.name or args.method}")
        if args.budget
        else None
    )
    if args.method == "presto":
        rewriting = presto_rewrite(query, tbox, budget=budget)
        print(f"# datalog program, size {rewriting.size} atoms")
        print(rewriting)
    else:
        rewritten = perfect_ref(query, tbox, budget=budget)
        print(f"# UCQ with {len(rewritten)} disjuncts")
        print(rewritten)
    return 0


def _cmd_render(args) -> int:
    from .graphical import render_svg, tbox_to_diagram

    tbox = load_ontology_file(args.ontology)
    svg = render_svg(tbox_to_diagram(tbox), title=tbox.name)
    if args.output:
        Path(args.output).write_text(svg)
        print(f"wrote {args.output}")
    else:
        print(svg)
    return 0


def _cmd_doc(args) -> int:
    from .docs import DocumentationOptions, generate_documentation

    tbox = load_ontology_file(args.ontology)
    text = generate_documentation(
        tbox, options=DocumentationOptions(title=args.title)
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_diff(args) -> int:
    from .evolution import diff_tboxes, render_diff

    old = load_ontology_file(args.old)
    new = load_ontology_file(args.new)
    diff = diff_tboxes(old, new)
    print(render_diff(diff), end="")
    if args.check and not diff.is_safe_extension:
        return 1
    return 0


def _lint_ontology(path: str) -> int:
    from .obda.mapping_analysis import analyze_mappings  # noqa: F401 (re-export check)

    tbox = load_ontology_file(path)
    from .core import GraphClassifier

    classification = GraphClassifier().classify(tbox)
    problems = 0
    unsat = sorted(str(n) for n in classification.unsatisfiable())
    for name in unsat:
        print(f"[error/semantics] unsatisfiable predicate: {name}")
        problems += 1
    # predicates declared but never constrained
    from .dllite.axioms import axiom_signature

    used = set()
    for axiom in tbox:
        used.update(axiom_signature(axiom))
    for predicate in tbox.signature:
        if predicate not in used:
            print(f"[warning/coverage] predicate declared but unused: {predicate}")
            problems += 1
    if problems == 0:
        print("no issues found")
    return 1 if unsat else 0


def _cmd_lint(args) -> int:
    """Dispatch: Python targets → invariant lint, ontology file → design lint.

    Code-lint exit codes: 0 clean, 1 findings (or, under ``--check``,
    stale/unjustified baseline entries), 2 usage errors.
    """
    from .analysis import (
        Baseline,
        UsageError,
        iter_rule_lines,
        render_text,
        run_lint,
    )

    if args.rules:
        for line in iter_rule_lines():
            print(line)
        return 0
    if not args.target:
        print(
            "lint: provide Python files/directories or an ontology file",
            file=sys.stderr,
        )
        return 2
    targets = [Path(raw) for raw in args.target]
    code_flags = args.check or args.json or args.update_baseline or args.rule
    code_mode = any(
        target.suffix == ".py" or target.is_dir() for target in targets
    )
    if not code_mode and not code_flags:
        if len(targets) != 1:
            print("lint: one ontology file at a time", file=sys.stderr)
            return 2
        return _lint_ontology(str(targets[0]))

    baseline_path = Path(args.baseline)
    baseline = Baseline.load(baseline_path)
    try:
        report, raw_findings = run_lint(
            targets,
            rule_ids=args.rule or None,
            baseline=baseline,
            root=Path.cwd(),
        )
    except UsageError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.update_baseline:
        refreshed = Baseline.from_findings(raw_findings, baseline)
        refreshed.save(baseline_path)
        print(f"wrote {baseline_path} ({len(refreshed.entries)} entries)")
        return 0
    if args.json:
        print(report.to_json(), end="")
    else:
        print(
            render_text(report, check=args.check, verbose=bool(args.verbose)),
            end="",
        )
    return 1 if report.failed(check=args.check) else 0


def _cmd_corpus(args) -> int:
    from .corpus import FIGURE1_ORDER, load_profile
    from .dllite import serialize_owl_functional, serialize_tbox

    if args.list:
        for name in FIGURE1_ORDER:
            print(name)
        return 0
    if not args.name:
        print("corpus: provide an ontology name or --list", file=sys.stderr)
        return 2
    tbox = load_profile(args.name, scale=args.scale)
    text = (
        serialize_owl_functional(tbox)
        if args.format == "owl"
        else serialize_tbox(tbox)
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(tbox)} axioms)")
    else:
        print(text)
    return 0


def _cmd_figure1(args) -> int:
    from .figure1 import main as figure1_main

    argv = ["--budget", str(args.budget), "--scale", str(args.scale)]
    for ontology in args.ontology or []:
        argv += ["--ontology", ontology]
    if args.fallback:
        argv.append("--fallback")
    return figure1_main(argv)


def _demo_obda_system():
    """A small self-contained OBDA system for the resilience smoke test."""
    from .dllite import AtomicConcept, AtomicRole, parse_tbox
    from .obda import (
        Database,
        IriTemplate,
        MappingAssertion,
        MappingCollection,
        OBDASystem,
        TargetAtom,
    )

    tbox = parse_tbox(
        """
        role teaches
        Professor isa Teacher
        Teacher isa Person
        Student isa Person
        Teacher isa exists teaches
        exists teaches isa Teacher
        exists teaches^- isa Course
        Student isa not Teacher
        """
    )
    db = Database("campus")
    db.create_table(
        "staff", ["id", "role"], [(1, "prof"), (2, "prof"), (3, "lecturer")]
    )
    db.create_table(
        "teaching", ["staff_id", "course"], [(1, "logic"), (2, "compilers")]
    )
    db.create_table("enrolled", ["sid"], [(10,), (11,)])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'lecturer'",
                [TargetAtom(AtomicConcept("Teacher"), (IriTemplate("person/{id}"),))],
            ),
            MappingAssertion(
                "SELECT staff_id, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (
                            IriTemplate("person/{staff_id}"),
                            IriTemplate("course/{course}"),
                        ),
                    )
                ],
            ),
            MappingAssertion(
                "SELECT sid FROM enrolled",
                [TargetAtom(AtomicConcept("Student"), (IriTemplate("person/{sid}"),))],
            ),
        ]
    )
    return OBDASystem(tbox, mappings=mappings, database=db)


def _cmd_resilience(args) -> int:
    """Fault-injection smoke test over the whole OBDA pipeline.

    Answers a query fault-free, then re-answers it with seeded transient
    faults injected into the virtual-extent provider under a retry
    policy, and finally checks that a permanent outage surfaces as a
    typed PermanentSourceError.  Exit 0 iff the faulty run recovered the
    fault-free answers and the outage was typed.
    """
    from .errors import PermanentSourceError
    from .obda.evaluation import evaluate_ucq
    from .obda.cq_parser import parse_query
    from .runtime import (
        Budget,
        FaultInjector,
        FaultSpec,
        FaultyExtents,
        RetryingExtents,
        RetryPolicy,
    )

    system = _demo_obda_system()
    query = parse_query(args.query)
    budget_s = args.budget if args.budget else None

    baseline = system.certain_answers(query, budget=budget_s)
    print(f"fault-free answers: {len(baseline)}")

    rewritten = system.rewrite(query)
    injector = FaultInjector(FaultSpec(transient_rate=args.rate, seed=args.seed))
    policy = RetryPolicy(
        max_attempts=args.retries + 1,
        base_delay_s=0.001,
        seed=args.seed,
    )
    provider = RetryingExtents(
        FaultyExtents(system.extents(), injector),
        policy,
        budget=Budget(budget_s, task="resilience:faulty run"),
    )
    recovered = evaluate_ucq(rewritten, provider)
    print(
        f"faulty run ({args.rate:.0%} transient rate, seed {args.seed}): "
        f"{len(recovered)} answers, {injector.transients_injected} fault(s) "
        f"injected over {injector.calls} source call(s)"
    )
    if recovered != baseline:
        print("MISMATCH: faulty run lost answers", file=sys.stderr)
        return 1

    outage = FaultyExtents(
        system.extents(), FaultInjector(FaultSpec(permanent_after=0))
    )
    try:
        evaluate_ucq(rewritten, RetryingExtents(outage, policy))
    except PermanentSourceError as error:
        print(f"permanent outage surfaced as: {type(error).__name__}: {error}")
    else:
        print("MISSING: permanent outage did not raise", file=sys.stderr)
        return 1
    print("resilience smoke test passed")
    return 0


def _cmd_explain(args) -> int:
    """Trace one query end-to-end and print the span tree.

    The ontology comes from a file (positional) or a corpus profile
    (``--profile``); the data side is a seeded random ABox lowered
    through direct GAV mappings.  Exit 0 iff the run completed (with
    ``--check``, also iff the exported JSON-lines validate structurally).
    """
    from .obs.explain import explain_jsonlines, render_explain, run_explain
    from .obs.schema import validate_trace_lines

    if args.ontology:
        tbox = load_ontology_file(args.ontology)
    elif args.profile:
        from .corpus import load_profile

        tbox = load_profile(args.profile, scale=args.scale)
    else:
        print("explain: provide an ontology file or --profile", file=sys.stderr)
        return 2
    report = run_explain(
        tbox,
        query=args.query,
        method=args.method,
        seed=args.seed,
        budget=args.budget,
        fallback=args.fallback,
        use_planner=not args.no_planner,
    )
    print(render_explain(report))
    problems = []
    if args.json or args.check:
        lines = explain_jsonlines(report)
        if args.json:
            Path(args.json).write_text(lines + "\n")
            print(f"\nwrote {args.json}")
        if args.check:
            problems = validate_trace_lines(lines)
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    return 0 if report.ok else 1


def _cmd_conformance(args) -> int:
    """Cross-engine conformance fuzzing (differential + metamorphic + shrink).

    Exit 0 iff every check of every round agreed; disagreements are
    printed (and, with ``--regressions``, minimized and written as
    replayable fixtures).  A budget exhaustion is an orderly early stop.
    """
    from .testkit import ConformanceConfig, run_conformance
    from .testkit.oracle import DEFAULT_ENGINES

    engines = (
        tuple(name.strip() for name in args.engines.split(",") if name.strip())
        if args.engines
        else DEFAULT_ENGINES
    )
    config = ConformanceConfig(
        seed=args.seed,
        rounds=args.rounds,
        engines=engines,
        budget_s=args.budget,
        semantics_every=args.semantics_every,
        obda_every=args.obda_every,
        planner_every=args.planner_every,
        backend_every=args.backend_every,
        mode=args.mode,
        regression_dir=args.regressions,
        shrink=not args.no_shrink,
    )
    report = run_conformance(config)
    print(report.summary())
    for disagreement in report.disagreements:
        print(f"  {disagreement}", file=sys.stderr)
    for path in report.reproducers:
        print(f"  reproducer written: {path}")
    return 0 if report.ok else 1


def _cmd_soak(args) -> int:
    """Seeded chaos-soak drill (see :mod:`repro.runtime.soak`).

    Exit 0 iff every invariant held: zero lost updates, zero stale
    answers, zero deadlocks, no unexpected worker exceptions.
    """
    import json

    from .runtime.soak import SoakConfig, run_soak

    config = SoakConfig(
        seed=args.seed,
        threads=args.threads,
        ops_per_thread=args.ops,
        transient_rate=args.transient_rate,
        method=args.method,
    )
    report = run_soak(config)
    totals = report["totals"]
    outcomes = totals["outcomes"]
    print(
        f"soak: seed {args.seed}, {args.threads} thread(s), "
        f"{totals['operations']} op(s) in {report['workload_s']:.2f}s "
        f"({totals['queries']} queries, "
        f"{totals['mutations']['asserts']} insert(s), "
        f"{totals['mutations']['axioms']} axiom add(s))"
    )
    print(
        f"  outcomes: {outcomes['ok']} ok, {outcomes['degraded']} degraded; "
        f"faults: {report['faults']['transients_injected']} transient(s) "
        f"over {report['faults']['calls']} source call(s)"
    )
    invariants = report["invariants"]
    for name in ("lost_updates", "stale_answers", "deadlocks", "errors"):
        violations = invariants[name]
        status = "ok" if not violations else f"{len(violations)} VIOLATION(S)"
        print(f"  {name.replace('_', ' ')}: {status}")
        for violation in violations[:10]:
            print(f"    {violation}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, default=str))
        print(f"  report written: {args.json}")
    return 0 if invariants["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DL-Lite classification and OBDA toolbox"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="enable library logging (-v = INFO, -vv = DEBUG)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classify = commands.add_parser("classify", help="classify an ontology")
    classify.add_argument("ontology")
    classify.add_argument("--closure", default="scc_bitset")
    classify.add_argument("--list", action="store_true", help="print every subsumption")
    classify.add_argument(
        "--budget",
        type=float,
        help="abort (with a typed timeout) after this many seconds",
    )
    classify.set_defaults(handler=_cmd_classify)

    implication = commands.add_parser("implication", help="decide T ⊨ α")
    implication.add_argument("ontology")
    implication.add_argument("axiom", help='e.g. "A isa exists P . B"')
    implication.set_defaults(handler=_cmd_implication)

    rewrite = commands.add_parser("rewrite", help="rewrite a conjunctive query")
    rewrite.add_argument("ontology")
    rewrite.add_argument("query", help='e.g. "q(x) :- Teacher(x)"')
    rewrite.add_argument(
        "--method", choices=["perfectref", "presto"], default="perfectref"
    )
    rewrite.add_argument(
        "--budget",
        type=float,
        help="abort the (worst-case exponential) rewriting after this many seconds",
    )
    rewrite.set_defaults(handler=_cmd_rewrite)

    render = commands.add_parser("render", help="render the ontology diagram as SVG")
    render.add_argument("ontology")
    render.add_argument("-o", "--output")
    render.set_defaults(handler=_cmd_render)

    doc = commands.add_parser("doc", help="generate Markdown documentation")
    doc.add_argument("ontology")
    doc.add_argument("-o", "--output")
    doc.add_argument("--title")
    doc.set_defaults(handler=_cmd_doc)

    diff = commands.add_parser("diff", help="diff two ontology versions")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the new version is a safe extension",
    )
    diff.set_defaults(handler=_cmd_diff)

    lint = commands.add_parser(
        "lint",
        help="invariant lint on Python sources (RL001–RL005), or "
        "design-quality checks on an ontology file",
    )
    lint.add_argument(
        "target",
        nargs="*",
        help="Python files/directories (code lint) or one ontology file",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="RLxxx",
        help="run only these rule packs (repeatable)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    lint.add_argument(
        "--check",
        action="store_true",
        help="fail on new findings and on stale or unjustified baseline "
        "entries (CI gate)",
    )
    lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="grandfathered-findings file (default: %(default)s)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings, keeping "
        "existing justifications",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="list the rule packs and their invariants, then exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    corpus = commands.add_parser("corpus", help="emit a Figure 1 benchmark ontology")
    corpus.add_argument("name", nargs="?")
    corpus.add_argument("--list", action="store_true")
    corpus.add_argument("--scale", type=float, default=1.0)
    corpus.add_argument("--format", choices=["text", "owl"], default="text")
    corpus.add_argument("-o", "--output")
    corpus.set_defaults(handler=_cmd_corpus)

    figure1 = commands.add_parser("figure1", help="run the Figure 1 grid")
    figure1.add_argument("--budget", type=float, default=60.0)
    figure1.add_argument("--scale", type=float, default=1.0)
    figure1.add_argument("--ontology", action="append")
    figure1.add_argument(
        "--fallback",
        action="store_true",
        help="add a resilient fallback-chain column to the grid",
    )
    figure1.set_defaults(handler=_cmd_figure1)

    resilience = commands.add_parser(
        "resilience",
        help="fault-injection smoke test of the OBDA pipeline "
        "(seeded transient faults + retries + typed outage)",
    )
    resilience.add_argument(
        "--query",
        default="q(x) :- Person(x)",
        help="conjunctive query answered over the built-in demo system",
    )
    resilience.add_argument(
        "--rate", type=float, default=0.3, help="transient fault probability per call"
    )
    resilience.add_argument(
        "--seed", type=int, default=7, help="fault/jitter stream seed (deterministic)"
    )
    resilience.add_argument(
        "--retries", type=int, default=5, help="retry attempts per source call"
    )
    resilience.add_argument(
        "--budget", type=float, help="overall time budget in seconds"
    )
    resilience.set_defaults(handler=_cmd_resilience)

    conformance = commands.add_parser(
        "conformance",
        help="cross-engine conformance fuzzing: differential oracle, "
        "metamorphic invariants, minimizing shrinker",
    )
    conformance.add_argument(
        "--seed", type=int, default=7, help="campaign seed (fully deterministic)"
    )
    conformance.add_argument(
        "--rounds", type=int, default=25, help="fuzz rounds to run"
    )
    conformance.add_argument(
        "--engines",
        help="comma-separated engine names (default: every registered engine)",
    )
    conformance.add_argument(
        "--budget",
        type=float,
        help="overall time budget in seconds (early stop, not a failure)",
    )
    conformance.add_argument(
        "--semantics-every",
        type=int,
        default=2,
        help="run the brute-force finite-model check every Nth round (0 = never)",
    )
    conformance.add_argument(
        "--obda-every",
        type=int,
        default=2,
        help="run the end-to-end OBDA answer diff every Nth round (0 = never)",
    )
    conformance.add_argument(
        "--planner-every",
        type=int,
        default=2,
        help="run the naive-vs-planned SQL equivalence diff every Nth "
        "round (0 = never)",
    )
    conformance.add_argument(
        "--backend-every",
        type=int,
        default=2,
        help="run the five-path backend diff (KB perfectref/presto, sqlite, "
        "planned and naive SQL) every Nth round (0 = never)",
    )
    conformance.add_argument(
        "--mode",
        choices=["all", "planner", "backend"],
        default="all",
        help="'planner' runs only the naive-vs-planned SQL oracle every "
        "round (the planner-smoke CI job); 'backend' runs only the "
        "five-path backend oracle every round (the sqlite-smoke CI job)",
    )
    conformance.add_argument(
        "--regressions",
        help="directory to write minimized reproducers into "
        "(e.g. tests/regressions)",
    )
    conformance.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw disagreements without minimizing them",
    )
    conformance.set_defaults(handler=_cmd_conformance)

    explain = commands.add_parser(
        "explain",
        help="trace one query end-to-end and print the span tree "
        "(timings, cache outcomes, chosen engine, metrics snapshot)",
    )
    explain.add_argument(
        "ontology", nargs="?", help="ontology file (or use --profile)"
    )
    explain.add_argument(
        "--profile", help="Figure 1 corpus ontology name instead of a file"
    )
    explain.add_argument(
        "--scale", type=float, default=0.25, help="corpus profile scale factor"
    )
    explain.add_argument(
        "-q",
        "--query",
        help='conjunctive query, e.g. "q(x) :- Teacher(x)" '
        "(default: a seeded generated query)",
    )
    explain.add_argument(
        "--method",
        choices=["perfectref", "perfectref-sql", "perfectref-sqlite", "presto"],
        default="perfectref-sql",
    )
    explain.add_argument(
        "--seed", type=int, default=7, help="ABox/query synthesis seed"
    )
    explain.add_argument(
        "--budget", type=float, help="per-query time budget in seconds"
    )
    explain.add_argument(
        "--fallback",
        action="store_true",
        help="also classify through the resilient fallback chain, traced",
    )
    explain.add_argument(
        "--no-planner",
        action="store_true",
        help="run the perfectref-sql path through the naive evaluator "
        "instead of the cost-based planner",
    )
    explain.add_argument(
        "--json", help="write the trace as JSON-lines to this file"
    )
    explain.add_argument(
        "--check",
        action="store_true",
        help="validate the exported JSON-lines structurally; non-zero on problems",
    )
    explain.set_defaults(handler=_cmd_explain)

    soak = commands.add_parser(
        "soak",
        help="seeded chaos-soak drill: hammer one OBDA system from worker "
        "threads (queries + updates + injected faults) and verify zero "
        "lost updates, zero stale answers, zero deadlocks",
    )
    soak.add_argument("--seed", type=int, default=0, help="drill seed")
    soak.add_argument("--threads", type=int, default=8, help="worker threads")
    soak.add_argument(
        "--ops", type=int, default=40, help="operations per worker thread"
    )
    soak.add_argument(
        "--transient-rate",
        type=float,
        default=0.05,
        help="injected transient-fault probability per source call",
    )
    soak.add_argument(
        "--method",
        choices=["perfectref", "presto"],
        default="perfectref",
        help="query answering method under soak",
    )
    soak.add_argument(
        "--json", help="also write the full soak report as JSON to this file"
    )
    soak.set_defaults(handler=_cmd_soak)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        from .obs.logging import configure

        configure(args.verbose)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
