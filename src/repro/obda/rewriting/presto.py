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

__all__ = ["AuxiliaryRules", "DatalogRule", "DatalogRewriting", "presto_rewrite"]


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
    the program size used by the E3 benchmark comparison.  A concept and
    a role may share a name, so an auxiliary predicate is its name *and*
    arity: :meth:`rules_for` tells ``P*(x)`` and ``P*(x, y)`` apart, where
    ``rules_by_head`` (by name) holds both.  ``auxiliary`` is the
    classification's :class:`AuxiliaryRules` the rules were taken from,
    when :func:`presto_rewrite` made them.
    """

    def __init__(
        self,
        ucq: UnionQuery,
        rules: Sequence[DatalogRule],
        auxiliary: Optional["AuxiliaryRules"] = None,
    ):
        self.ucq = ucq
        self.rules = list(rules)
        self.auxiliary = auxiliary
        self.rules_by_head: Dict[str, List[DatalogRule]] = {}
        self._by_predicate: Dict[Tuple[str, int], List[DatalogRule]] = {}
        for rule in self.rules:
            head = rule.head
            self.rules_by_head.setdefault(head.predicate, []).append(rule)
            self._by_predicate.setdefault((head.predicate, head.arity), []).append(rule)

    def rules_for(self, predicate: str, arity: int) -> Optional[List[DatalogRule]]:
        """The rules defining *predicate* of *arity*; None for a base
        predicate."""
        return self._by_predicate.get((predicate, arity))

    def with_ucq(self, ucq: UnionQuery) -> "DatalogRewriting":
        """These rules beside another rewritten UCQ over them (the
        rewriting of a query with other constants)."""
        rewriting = object.__new__(DatalogRewriting)
        rewriting.__dict__.update(self.__dict__)
        rewriting.ucq = ucq
        return rewriting

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


def _subsumee_body(arity: int, subsumee, of_role: bool) -> Optional[Atom]:
    """The body of the one flat rule deriving an auxiliary predicate of
    *arity* from a classified subsumee node, over ``x`` (and ``y``)."""
    if arity == 1:
        if isinstance(subsumee, AtomicConcept):
            return Atom(subsumee.name, (_VAR_X,))
        if isinstance(subsumee, ExistentialRole):
            role = subsumee.role
            if isinstance(role, AtomicRole):
                return Atom(role.name, (_VAR_X, _VAR_Y))
            return Atom(role.role.name, (_VAR_Y, _VAR_X))
        if isinstance(subsumee, AttributeDomain):
            return Atom(subsumee.attribute.name, (_VAR_X, _VAR_Y))
        return None
    if of_role:
        if isinstance(subsumee, AtomicRole):
            return Atom(subsumee.name, (_VAR_X, _VAR_Y))
        if isinstance(subsumee, InverseRole):
            return Atom(subsumee.role.name, (_VAR_Y, _VAR_X))
        return None
    if isinstance(subsumee, AtomicAttribute):
        return Atom(subsumee.name, (_VAR_X, _VAR_Y))
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


class AuxiliaryRules:
    """Every auxiliary predicate of a classification with the rules that
    define it: ``A*`` by one flat rule per classified subsumee of ``A``.

    They depend on the classification alone, so each predicate's rules
    are built on first use and kept on the classification, beside its
    witness index: every instance over one classification shares them.
    The classification holds the rules and not this object, so it is
    freed by reference counting, with no cycle to wait on.  An
    :class:`~repro.obda.evaluation.DatalogExtents` over it serves every
    auxiliary predicate of every query rewritten against the
    classification (``OBDASystem`` keeps one such provider per TBox
    generation).  Racing first uses of a predicate build equal rules;
    either may be kept.
    """

    def __init__(self, classification: Classification):
        self.classification = classification
        # setdefault is atomic under the GIL: racing first instances
        # share one dict
        kept = classification.__dict__
        self._rules: Dict[Tuple[str, int], Tuple[DatalogRule, ...]] = kept.setdefault(
            "_presto_auxiliary_rules", {}
        )
        #: each rule body once across the rules (a subsumee of many
        #: predicates is the body of as many rules)
        self._bodies: Dict[Tuple[Atom], Tuple[Atom]] = kept.setdefault(
            "_presto_rule_bodies", {}
        )

    def rules_for(self, predicate: str, arity: int) -> Optional[Tuple[DatalogRule, ...]]:
        """The rules defining the auxiliary *predicate* (``name*``) of
        *arity*; None for a base predicate."""
        rules = self._rules.get((predicate, arity))
        if rules is not None:
            return rules
        if not predicate.endswith("*"):
            return None
        classification = self.classification
        node, of_role = _predicate_node(predicate[:-1], arity, classification.tbox)
        if node is None or node not in classification.graph:
            return None
        head = Atom(predicate, (_VAR_X,) if arity == 1 else (_VAR_X, _VAR_Y))
        rules = []
        for subsumee in sorted(classification.subsumees(node), key=str):
            body = _subsumee_body(arity, subsumee, of_role)
            if body is not None:
                body = self._bodies.setdefault((body,), (body,))
                rules.append(DatalogRule(head, body))
        return self._rules.setdefault((predicate, arity), tuple(rules))


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
    its first rewrite and reused until it is garbage; so are the rules
    of each auxiliary predicate (:class:`AuxiliaryRules`), which the
    returned program lists for the predicates its UCQ reads.  A *budget*
    bounds both the classification (when computed here) and the
    rewriting phases.
    """
    if classification is None:
        classification = GraphClassifier().classify(tbox, watch=budget)

    # Phase 1 — existential elimination only, over the classification's
    # witness set (see _witness_tbox).
    expanded = perfect_ref_indexed(
        query, _witness_index(classification), minimize=True, budget=budget
    )

    # Phase 2 — hierarchy as flat datalog rules, taken from the
    # classification's auxiliary rules.  An auxiliary predicate is its
    # name and arity: a concept and a role may share a name.
    auxiliary = AuxiliaryRules(classification)
    needed: Set[Tuple[str, int]] = set()
    rewritten_disjuncts: List[ConjunctiveQuery] = []
    for disjunct in expanded:
        atoms = []
        for atom in disjunct.atoms:
            node, _ = _predicate_node(atom.predicate, atom.arity, tbox)
            if node is None or node not in classification.graph:
                atoms.append(atom)  # unknown predicate: keep as base atom
                continue
            aux = f"{atom.predicate}*"
            needed.add((aux, atom.arity))
            atoms.append(Atom(aux, atom.args))
        rewritten_disjuncts.append(
            ConjunctiveQuery(disjunct.answer_vars, atoms, disjunct.name)
        )

    rules: List[DatalogRule] = []
    for aux, arity in sorted(needed):
        if budget is not None:
            budget.check()
        rules.extend(auxiliary.rules_for(aux, arity) or ())

    return DatalogRewriting(
        UnionQuery(rewritten_disjuncts, query.name), rules, auxiliary
    )


def _predicate_node(name: str, arity: int, tbox: TBox):
    """Resolve a predicate name of *arity* to its digraph node (None when
    *tbox* does not know it) and whether it is a role."""
    if arity == 1:
        concept = AtomicConcept(name)
        if concept in tbox.signature.concepts:
            return concept, False
        return None, False
    role = AtomicRole(name)
    if role in tbox.signature.roles:
        return role, True
    attribute = AtomicAttribute(name)
    if attribute in tbox.signature.attributes:
        return attribute, False
    return None, False
