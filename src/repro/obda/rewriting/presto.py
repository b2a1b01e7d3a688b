"""A Presto-style rewriter: classification-driven non-recursive datalog.

The paper (§5) motivates efficient classification partly through query
answering: "efficient ontology classification can also be crucial for
query answering, which can exploit such classification, as for example
happens in the Presto algorithm ... currently implemented in the DL-Lite
reasoner QuOnto at the core of the Mastro system."

Where PerfectRef compiles the *whole* TBox into an exponential union of
CQs, Presto splits the work:

1. **existential elimination** — only the rewriting steps that remove
   unbound existential variables (witness axioms ``B ⊑ ∃Q[.A]``) are
   applied at the UCQ level; hierarchy axioms are *not* expanded here,
   which is what keeps the union small;
2. **hierarchy via datalog** — every remaining atom ``p(...)`` is
   replaced by an auxiliary predicate ``p*`` defined by one flat datalog
   rule per classified subsumee of ``p`` (taken from the transitive
   closure the graph classifier computed), e.g.::

       A*(x) :- A(x)      A*(x) :- A'(x)      A*(x) :- P(x, _)

The output is a :class:`DatalogRewriting`: a program whose size is
linear in the classification, against PerfectRef's potentially
exponential UCQ — benchmark E3 measures exactly this gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...core.classify import Classification
from ...core.classifier import GraphClassifier
from ...core.deductive import qualified_inclusions
from ...dllite.axioms import ConceptInclusion
from ...dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
)
from ...dllite.tbox import TBox
from ...runtime.budget import Budget
from ..queries import Atom, ConjunctiveQuery, UnionQuery, Variable
from .perfectref import AxiomIndex, perfect_ref_indexed

__all__ = ["DatalogRule", "DatalogRewriting", "presto_rewrite"]


@dataclass(frozen=True)
class DatalogRule:
    """``head :- body_atom`` — all hierarchy rules are single-atom and flat."""

    head: Atom
    body: Tuple[Atom, ...]

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(map(str, self.body))}"


class DatalogRewriting:
    """A small non-recursive datalog program plus the rewritten UCQ.

    ``ucq`` references auxiliary predicates (``name*``); ``rules`` define
    each auxiliary predicate from base (mapped) predicates.  ``size`` is
    the program size used by the E3 benchmark comparison.
    """

    def __init__(self, ucq: UnionQuery, rules: Sequence[DatalogRule]):
        self.ucq = ucq
        self.rules = list(rules)
        self.rules_by_head: Dict[str, List[DatalogRule]] = {}
        for rule in self.rules:
            self.rules_by_head.setdefault(rule.head.predicate, []).append(rule)

    @property
    def size(self) -> int:
        """Total number of atoms in the program (rules + query disjuncts)."""
        return sum(1 + len(rule.body) for rule in self.rules) + sum(
            len(cq.atoms) for cq in self.ucq
        )

    def auxiliary_predicates(self) -> Set[str]:
        return set(self.rules_by_head)

    def as_program(self):
        """The rewriting as a general datalog :class:`~repro.obda.datalog.Program`.

        Presto rules are flat by construction, so the fast
        :class:`~repro.obda.evaluation.DatalogExtents` provider suffices
        for evaluation; this view exists for interoperability with the
        semi-naive engine (and is cross-checked against the fast path in
        the test-suite).
        """
        from ..datalog import Program, Rule as DatalogRule_

        return Program(
            DatalogRule_(rule.head, tuple(rule.body)) for rule in self.rules
        )

    def __str__(self) -> str:
        lines = [str(rule) for rule in self.rules]
        lines.append(str(self.ucq))
        return "\n".join(lines)


_VAR_X = Variable("x")
_VAR_Y = Variable("y")


def _subsumee_rule(aux_name: str, arity: int, subsumee, of_role: bool) -> Optional[DatalogRule]:
    """One flat rule deriving ``aux`` from a classified subsumee node."""
    if arity == 1:
        head = Atom(aux_name, (_VAR_X,))
        if isinstance(subsumee, AtomicConcept):
            return DatalogRule(head, (Atom(subsumee.name, (_VAR_X,)),))
        if isinstance(subsumee, ExistentialRole):
            role = subsumee.role
            if isinstance(role, AtomicRole):
                return DatalogRule(head, (Atom(role.name, (_VAR_X, _VAR_Y)),))
            return DatalogRule(head, (Atom(role.role.name, (_VAR_Y, _VAR_X)),))
        if isinstance(subsumee, AttributeDomain):
            return DatalogRule(head, (Atom(subsumee.attribute.name, (_VAR_X, _VAR_Y)),))
        return None
    head = Atom(aux_name, (_VAR_X, _VAR_Y))
    if of_role:
        if isinstance(subsumee, AtomicRole):
            return DatalogRule(head, (Atom(subsumee.name, (_VAR_X, _VAR_Y)),))
        if isinstance(subsumee, InverseRole):
            return DatalogRule(head, (Atom(subsumee.role.name, (_VAR_Y, _VAR_X)),))
        return None
    if isinstance(subsumee, AtomicAttribute):
        return DatalogRule(head, (Atom(subsumee.name, (_VAR_X, _VAR_Y)),))
    return None


def _witness_tbox(classification: Classification) -> TBox:
    """The TBox of Presto's existential-elimination phase.

    It holds every *entailed* inclusion whose right-hand side is an
    existential (∃Q, ∃Q.A) or attribute domain, taken straight from the
    classification closure: with the deductively-closed witness set,
    each unbound-variable elimination is a single axiom application, so
    no hierarchy expansion is ever needed at the UCQ level — filler and
    role upward-monotonicity is already folded into the axiom set.
    """
    witness_tbox = TBox(name=f"{classification.tbox.name}-witnesses")
    for node in classification.graph.nodes:
        if isinstance(node, (AtomicConcept, AtomicRole, AtomicAttribute)):
            witness_tbox.declare(node)
    for node in classification.graph.nodes:
        if isinstance(node, (AtomicRole, InverseRole)):
            continue
        for upper in classification.subsumers(node):
            if upper != node and isinstance(upper, (ExistentialRole, AttributeDomain)):
                witness_tbox.add(ConceptInclusion(node, upper))
    for axiom in qualified_inclusions(classification):
        witness_tbox.add(axiom)
    return witness_tbox


def _witness_index(classification: Classification) -> AxiomIndex:
    """The axiom index of *classification*'s witness set, built on first
    use and kept on the classification: it depends on nothing else, so
    every system sharing the classification (through a
    ClassificationCache) shares it, and a mutated TBox, which classifies
    anew, never sees a stale one.  Racing first uses build equal indexes;
    either may be kept."""
    index = getattr(classification, "_presto_witness_index", None)
    if index is None:
        index = AxiomIndex(_witness_tbox(classification))
        classification._presto_witness_index = index
    return index


def presto_rewrite(
    query: UnionQuery,
    tbox: TBox,
    classification: Optional[Classification] = None,
    budget: Optional[Budget] = None,
) -> DatalogRewriting:
    """Rewrite *query* into a datalog program using the classification.

    The existential-elimination phase reuses the PerfectRef loop but over
    a *hierarchy-free* copy of the TBox (only axioms whose right-hand
    side is an existential/domain survive), so the UCQ growth stays
    limited to genuine witness reasoning.  That witness set and its
    axiom index depend only on *classification*, so they are built on
    its first rewrite and reused until it is garbage.  A *budget* bounds
    both the classification (when computed here) and the rewriting
    phases.
    """
    if classification is None:
        classification = GraphClassifier().classify(tbox, watch=budget)

    # Phase 1 — existential elimination only, over the classification's
    # witness set (see _witness_tbox).
    expanded = perfect_ref_indexed(
        query, _witness_index(classification), minimize=True, budget=budget
    )

    # Phase 2 — hierarchy as flat datalog rules.
    rules: List[DatalogRule] = []
    needed: Dict[str, Tuple[object, int, bool]] = {}
    rewritten_disjuncts: List[ConjunctiveQuery] = []
    for disjunct in expanded:
        atoms = []
        for atom in disjunct.atoms:
            node, arity, of_role = _predicate_node(atom, tbox)
            if node is None or node not in classification.graph:
                atoms.append(atom)  # unknown predicate: keep as base atom
                continue
            aux = f"{atom.predicate}*"
            needed.setdefault(aux, (node, arity, of_role))
            atoms.append(Atom(aux, atom.args))
        rewritten_disjuncts.append(
            ConjunctiveQuery(disjunct.answer_vars, atoms, disjunct.name)
        )

    for aux, (node, arity, of_role) in sorted(needed.items()):
        if budget is not None:
            budget.check()
        for subsumee in sorted(classification.subsumees(node), key=str):
            rule = _subsumee_rule(aux, arity, subsumee, of_role)
            if rule is not None:
                rules.append(rule)

    return DatalogRewriting(UnionQuery(rewritten_disjuncts, query.name), rules)


def _predicate_node(atom: Atom, tbox: TBox):
    """Resolve an atom's predicate to its digraph node, arity and sort."""
    if atom.arity == 1:
        concept = AtomicConcept(atom.predicate)
        if concept in tbox.signature.concepts:
            return concept, 1, False
        return None, 1, False
    role = AtomicRole(atom.predicate)
    if role in tbox.signature.roles:
        return role, 2, True
    attribute = AtomicAttribute(atom.predicate)
    if attribute in tbox.signature.attributes:
        return attribute, 2, False
    return None, 2, False
