"""The differential oracle: every engine against every other.

Four diff families, in decreasing authority (see the package docstring
for the full hierarchy):

* :func:`semantics_soundness` — the brute-force finite-model oracle of
  :mod:`repro.dllite.semantics`.  A countermodel for a *claimed*
  subsumption is definitive: the engine is unsound.  (The converse
  direction — claiming incompleteness because no small countermodel was
  found — is *not* definitive at a bounded domain size, so completeness
  is left to the independent saturation engine in the differential set.)
* :func:`diff_classifications` / :func:`diff_engines` — classification
  outputs (named Φ_T plus Ω_T) of all registered reasoners diffed
  pairwise against a complete reference.  Engines documented as
  incomplete (``complete = False``, the CB analogue) are held to
  *soundness only*: everything they derive must also be derived by the
  reference.
* :func:`diff_backend` — the five answering paths (PerfectRef and
  Presto over an ABox, sqlite, the SQL join and the naive SQL evaluator
  over its direct mapping) against KB-mode PerfectRef;
* :func:`diff_answers` — certain answers end to end through
  :class:`~repro.obda.system.OBDASystem`: PerfectRef vs Presto over
  virtual extents, and — when a mapped system is supplied — the naive
  UCQ evaluator vs the unfolded SQL-algebra pipeline.

All functions return a list of :class:`Disagreement` records; an empty
list means conformance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..baselines.base import NamedClassification, Reasoner
from ..baselines.registry import make_reasoner
from ..dllite.semantics import find_countermodel
from ..dllite.tbox import TBox
from ..errors import InconsistentOntology, ReproError
from ..runtime.budget import Budget

__all__ = [
    "DEFAULT_ENGINES",
    "Disagreement",
    "diff_answers",
    "diff_backend",
    "diff_classifications",
    "diff_engines",
    "naive_sql_answers",
    "semantics_soundness",
]

#: The engine line-up a conformance round runs by default.  ``fallback-chain``
#: is deliberately absent (it is a composition of members already present).
DEFAULT_ENGINES: Tuple[str, ...] = (
    "quonto-graph",
    "saturation",
    "tableau-pairwise",
    "tableau-memoized",
    "tableau-dense",
    "cb-consequence",
)


@dataclass(frozen=True)
class Disagreement:
    """One observed divergence between two components of the stack."""

    #: "classification" | "unsat" | "semantics" | "answers" | "consistency"
    #: | "error" | "backend" | "metamorphic:<invariant>"
    kind: str
    #: The two sides that disagree (engine or method names).
    left: str
    right: str
    #: Human-readable evidence (a few offending facts, not the full dump).
    detail: str
    #: Name of the ontology the divergence was observed on.
    ontology: str = ""

    def __str__(self) -> str:
        where = f" on {self.ontology}" if self.ontology else ""
        return f"[{self.kind}] {self.left} vs {self.right}{where}: {self.detail}"


def _sample(items: Iterable, limit: int = 5) -> str:
    rendered = sorted(str(item) for item in items)
    clipped = rendered[:limit]
    suffix = f" … (+{len(rendered) - limit} more)" if len(rendered) > limit else ""
    return "; ".join(clipped) + suffix


def diff_classifications(
    reference_name: str,
    reference: NamedClassification,
    candidate_name: str,
    candidate: NamedClassification,
    candidate_complete: bool = True,
    ontology: str = "",
) -> List[Disagreement]:
    """Diff two classification outputs (Φ_T over names, plus Ω_T)."""
    problems: List[Disagreement] = []
    extra = candidate.missing_from(reference)
    missing = reference.missing_from(candidate)
    if extra:
        problems.append(
            Disagreement(
                "classification",
                candidate_name,
                reference_name,
                f"derives {len(extra)} subsumption(s) the reference does not: "
                f"{_sample(extra)}",
                ontology,
            )
        )
    if candidate_complete and missing:
        problems.append(
            Disagreement(
                "classification",
                candidate_name,
                reference_name,
                f"misses {len(missing)} subsumption(s): {_sample(missing)}",
                ontology,
            )
        )
    extra_unsat = set(candidate.unsatisfiable) - set(reference.unsatisfiable)
    missing_unsat = set(reference.unsatisfiable) - set(candidate.unsatisfiable)
    if extra_unsat:
        problems.append(
            Disagreement(
                "unsat",
                candidate_name,
                reference_name,
                f"reports satisfiable predicate(s) as unsatisfiable: "
                f"{_sample(extra_unsat)}",
                ontology,
            )
        )
    if candidate_complete and missing_unsat:
        problems.append(
            Disagreement(
                "unsat",
                candidate_name,
                reference_name,
                f"misses unsatisfiable predicate(s): {_sample(missing_unsat)}",
                ontology,
            )
        )
    return problems


def _resolve_engines(engines: Optional[Sequence]) -> List[Reasoner]:
    resolved: List[Reasoner] = []
    for engine in engines if engines is not None else DEFAULT_ENGINES:
        resolved.append(make_reasoner(engine) if isinstance(engine, str) else engine)
    return resolved


def diff_engines(
    tbox: TBox,
    engines: Optional[Sequence] = None,
    budget: Optional[Budget] = None,
) -> List[Disagreement]:
    """Classify *tbox* with every engine and diff against the reference.

    The reference is the first engine whose ``complete`` flag is set (the
    default line-up starts with the graph classifier).  An engine raising
    anything other than a :class:`~repro.errors.ReproError` is itself
    reported as a disagreement — fuzz inputs must never crash an engine
    untyped.
    """
    resolved = _resolve_engines(engines)
    reference_engine = next((e for e in resolved if e.complete), resolved[0])
    problems: List[Disagreement] = []
    results = {}
    for engine in resolved:
        try:
            results[engine.name] = engine.classify_named(tbox, watch=budget)
        except ReproError:
            raise  # typed errors (timeouts, budget) propagate to the runner
        except Exception as error:  # noqa: BLE001 — untyped crash is a finding
            problems.append(
                Disagreement(
                    "error",
                    engine.name,
                    "(none)",
                    f"raised untyped {type(error).__name__}: {error}",
                    tbox.name,
                )
            )
    reference = results.get(reference_engine.name)
    if reference is None:
        return problems
    for engine in resolved:
        if engine.name == reference_engine.name or engine.name not in results:
            continue
        problems.extend(
            diff_classifications(
                reference_engine.name,
                reference,
                engine.name,
                results[engine.name],
                candidate_complete=engine.complete,
                ontology=tbox.name,
            )
        )
    return problems


def semantics_soundness(
    tbox: TBox,
    classification: Optional[NamedClassification] = None,
    max_domain: int = 2,
    max_signature: int = 5,
    budget: Optional[Budget] = None,
) -> List[Disagreement]:
    """Check every classified subsumption against the finite-model oracle.

    Only run on tiny signatures (≤ *max_signature* predicates): the model
    enumeration is exponential.  A countermodel is definitive evidence of
    unsoundness; absence of one (at this bound) proves nothing, which is
    why this function checks the soundness direction only.
    """
    if len(tbox.signature) > max_signature:
        return []
    if classification is None:
        classification = make_reasoner("quonto-graph").classify_named(
            tbox, watch=budget
        )
    problems: List[Disagreement] = []
    for axiom in sorted(classification.subsumptions, key=str):
        if budget is not None:
            budget.check()
        counter = find_countermodel(tbox, axiom, max_domain=max_domain)
        if counter is not None:
            problems.append(
                Disagreement(
                    "semantics",
                    "quonto-graph",
                    f"finite models (domain ≤ {max_domain})",
                    f"claimed subsumption {axiom} has a countermodel of size "
                    f"{counter.size}",
                    tbox.name,
                )
            )
    return problems


def naive_sql_answers(
    system,
    query,
    budget: Optional[Budget] = None,
    check_consistency: bool = True,
):
    """*query*'s perfectref-sql answers on *system* by the algebra
    evaluator: ``unfold(rewritten, mappings).execute(database)``.

    The index-free reference for the SQL join: it keeps no index between
    calls, where a cache-free ``perfectref-sql`` twin would probe the
    very :meth:`~repro.obda.sql.table.Table.index` it is meant to check.
    Consistency is checked first unless *check_consistency* is off, as
    ``certain_answers`` checks it.
    """
    from ..obda.rewriting.unfolding import unfold

    if check_consistency and not system.is_consistent():
        raise InconsistentOntology(
            "the mapped sources violate the TBox; every tuple is entailed"
        )
    rewritten = system.rewrite(query, budget=budget)
    return unfold(rewritten, system.mappings, budget=budget).execute(
        system.database, budget=budget
    )


def diff_backend(
    tbox: TBox,
    abox,
    queries,
    budget: Optional[Budget] = None,
) -> List[Disagreement]:
    """Diff all five answering paths over one ABox and its direct mapping.

    PerfectRef and Presto over the explicit *abox* (knowledge-base mode)
    against the three SQL paths over a direct mapping of it: the
    pushed-down sqlite backend (``perfectref-sqlite``), the compiled join
    over the tables (``perfectref-sql``) and the naive algebra evaluator
    (:func:`naive_sql_answers`).
    KB-mode PerfectRef is the reference: its answers are the certain
    answers over the ABox the mapping virtualizes, and every executor
    compares cells by their string forms, so an individual stored as a
    typed cell (see :func:`~repro.testkit.generators.direct_mapping_system`)
    must answer exactly like its name.  An empty list means all five
    produced identical certain answers on every query.
    """
    from ..errors import MappingError
    from ..obda.system import OBDASystem
    from .generators import direct_mapping_system

    kb = OBDASystem(tbox, abox=abox)
    sqlite_system = direct_mapping_system(tbox, abox)
    sql = direct_mapping_system(tbox, abox)
    naive = direct_mapping_system(tbox, abox)
    sides = (
        ("kb", kb, "perfectref"),
        ("kb", kb, "presto"),
        ("sqlite", sqlite_system, "perfectref-sqlite"),
        ("sql", sql, "perfectref-sql"),
        ("naive", naive, None),
    )
    problems: List[Disagreement] = []
    for query in queries:
        outcomes = {}
        for label, system, method in sides:
            key = f"{label}/{method or 'perfectref-sql'}"
            try:
                answers = (
                    naive_sql_answers(system, query, budget=budget)
                    if method is None
                    else system.certain_answers(query, method=method, budget=budget)
                )
                outcomes[key] = ("answers", frozenset(answers))
            except InconsistentOntology:
                outcomes[key] = ("inconsistent", frozenset())
            except MappingError as error:
                outcomes[key] = (f"mapping-error:{error}", frozenset())
        reference_key = "kb/perfectref"
        reference = outcomes[reference_key]
        for key, outcome in outcomes.items():
            if outcome == reference:
                continue
            (status, answers), (r_status, r_answers) = outcome, reference
            if status != r_status:
                detail = (
                    f"on {query.name}: {key} says {status}, "
                    f"{reference_key} says {r_status}"
                )
            else:
                parts = []
                gained = answers - r_answers
                lost = r_answers - answers
                if gained:
                    parts.append(f"extra answers {_sample(gained)}")
                if lost:
                    parts.append(f"missing answers {_sample(lost)}")
                detail = f"on {query.name}: " + "; ".join(parts)
            problems.append(
                Disagreement("backend", key, reference_key, detail, tbox.name)
            )
    return problems


def diff_answers(
    systems,
    queries,
    methods: Sequence[str] = ("perfectref", "presto"),
    budget: Optional[Budget] = None,
) -> List[Disagreement]:
    """Diff certain answers across rewriting/evaluation pipelines.

    *systems* maps a label to an :class:`~repro.obda.system.OBDASystem`
    over the *same* ontology and (logically) the same data — e.g. one in
    knowledge-base mode and one behind a direct mapping.  Every
    ``(system, method)`` pair legal for that system is evaluated; all of
    them must produce identical answer sets (and must agree on
    consistency: if one pipeline finds the KB inconsistent, all must).
    """
    if not isinstance(systems, dict):
        systems = {"kb": systems}
    problems: List[Disagreement] = []
    for query in queries:
        outcomes = {}
        for label, system in systems.items():
            for method in methods:
                if method.startswith("perfectref-sql") and system.mappings is None:
                    continue
                key = f"{label}/{method}"
                try:
                    outcomes[key] = (
                        "answers",
                        frozenset(
                            system.certain_answers(query, method=method, budget=budget)
                        ),
                    )
                except InconsistentOntology:
                    outcomes[key] = ("inconsistent", frozenset())
        if len(outcomes) < 2:
            continue
        baseline_key = sorted(outcomes)[0]
        baseline = outcomes[baseline_key]
        for key in sorted(outcomes):
            if outcomes[key] == baseline:
                continue
            status, answers = outcomes[key]
            base_status, base_answers = baseline
            if status != base_status:
                problems.append(
                    Disagreement(
                        "consistency",
                        key,
                        baseline_key,
                        f"on {query.name}: {key} says {status}, "
                        f"{baseline_key} says {base_status}",
                    )
                )
            else:
                gained = answers - base_answers
                lost = base_answers - answers
                detail = []
                if gained:
                    detail.append(f"extra answers {_sample(gained)}")
                if lost:
                    detail.append(f"missing answers {_sample(lost)}")
                problems.append(
                    Disagreement(
                        "answers",
                        key,
                        baseline_key,
                        f"on {query.name}: " + "; ".join(detail),
                    )
                )
    return problems
