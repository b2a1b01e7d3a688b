"""Semantic approximation OWL → DL-Lite (§7).

"The basic idea of the approach is to treat each OWL axiom α of the
original ontology in isolation, and compute, through the use of an OWL
reasoner, all DL-Lite axioms constructible over the signature of α that
are inferred by α."

:func:`semantic_approximation` implements exactly that per-axiom scheme
(``mode="per_axiom"``), plus the slower whole-ontology variant the paper
contrasts it with (``mode="global"`` — candidates over the full
signature, checked against the entire ontology; needs a full
classification's worth of reasoner calls and is therefore "significantly
slower", which benchmark E6 measures).

Candidate DL-Lite axioms over a signature (concept names ``A``, role
names ``P``):

* positive: ``B1 ⊑ B2`` with ``B ∈ {A, ∃P, ∃P⁻}``;
* negative: ``B1 ⊑ ¬B2``;
* qualified: ``B1 ⊑ ∃P.A``;
* role inclusions ``P1 ⊑ P2`` (and ``P1⁻ ⊑ P2⁻``, which is the same
  DL-Lite axiom set; mixed-inverse role axioms cannot be entailed by an
  inverse-free ALCH source unless trivial, so they are not enumerated).

Checks involving ``∃P⁻`` on the left are decided by seeding the tableau
with an explicit incoming ``P`` edge; ``∃P⁻`` on the *right* of a
positive inclusion is only entailed by an inverse-free source when the
left side is unsatisfiable or the witness comes through the role
hierarchy (``∃P⁻ ⊑ ∃R⁻`` iff ``P ⊑* R``) — both handled in closed form.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..dllite.axioms import Axiom, ConceptInclusion, RoleInclusion
from ..dllite.syntax import (
    AtomicConcept,
    AtomicRole,
    ExistentialRole,
    InverseRole,
    NegatedConcept,
    QualifiedExistential,
)
from ..dllite.tbox import TBox
from .owl import (
    ClassExpression,
    Not,
    OwlClass,
    OwlOntology,
    OwlSubPropertyOf,
    Some,
    Top,
    class_signature,
)
from .owl_reasoner import OwlReasoner

__all__ = ["semantic_approximation", "entailed_dllite_axioms"]


class _Candidate:
    """A DL-Lite basic concept together with its tableau encoding."""

    def __init__(self, expression, seed: Optional[ClassExpression], incoming: Tuple[str, ...]):
        self.expression = expression  # the DL-Lite side
        self.seed = seed  # class expression asserting membership (or None)
        self.incoming = incoming  # incoming-edge roles asserting membership

    @classmethod
    def for_basic(cls, basic) -> "_Candidate":
        if isinstance(basic, AtomicConcept):
            return cls(basic, OwlClass(basic.name), ())
        if isinstance(basic, ExistentialRole):
            role = basic.role
            if isinstance(role, AtomicRole):
                return cls(basic, Some(role.name, Top()), ())
            return cls(basic, None, (role.role.name,))
        raise TypeError(f"not a supported basic concept: {basic!r}")

    def negation(self) -> Optional[ClassExpression]:
        """The ALCH expression for ¬self, if expressible (no inverse)."""
        if isinstance(self.expression, AtomicConcept):
            return Not(OwlClass(self.expression.name))
        if isinstance(self.expression, ExistentialRole) and isinstance(
            self.expression.role, AtomicRole
        ):
            return Not(Some(self.expression.role.name, Top()))
        return None


def _basics(concepts: Sequence[str], roles: Sequence[str]) -> List[object]:
    basics: List[object] = [AtomicConcept(name) for name in sorted(concepts)]
    for role in sorted(roles):
        basics.append(ExistentialRole(AtomicRole(role)))
        basics.append(ExistentialRole(InverseRole(AtomicRole(role))))
    return basics


def entailed_dllite_axioms(
    reasoner: OwlReasoner,
    concepts: Sequence[str],
    roles: Sequence[str],
) -> Set[Axiom]:
    """All candidate DL-Lite axioms over the given signature entailed by
    the reasoner's ontology."""
    result: Set[Axiom] = set()
    basics = _basics(concepts, roles)
    candidates = {id(b): _Candidate.for_basic(b) for b in basics}
    unsat: Set[object] = set()

    # unsatisfiable basics first (they entail everything)
    for basic in basics:
        candidate = candidates[id(basic)]
        seeds = [candidate.seed] if candidate.seed is not None else []
        if not reasoner.is_satisfiable(seeds, candidate.incoming):
            unsat.add(basic)

    def is_inverse_existential(basic) -> bool:
        return isinstance(basic, ExistentialRole) and isinstance(
            basic.role, InverseRole
        )

    # positive and negative inclusions between basics
    for lhs in basics:
        lhs_candidate = candidates[id(lhs)]
        lhs_seeds = [lhs_candidate.seed] if lhs_candidate.seed is not None else []
        for rhs in basics:
            if lhs == rhs:
                continue
            rhs_candidate = candidates[id(rhs)]
            # positive lhs ⊑ rhs
            if lhs in unsat:
                result.add(ConceptInclusion(lhs, rhs))
            elif is_inverse_existential(rhs):
                # ∃P⁻ on the right: closed form via the role hierarchy.
                if is_inverse_existential(lhs) and reasoner.is_subrole(
                    lhs.role.role.name, rhs.role.role.name
                ):
                    result.add(ConceptInclusion(lhs, rhs))
            else:
                negated = rhs_candidate.negation()
                if negated is not None and not reasoner.is_satisfiable(
                    lhs_seeds + [negated], lhs_candidate.incoming
                ):
                    result.add(ConceptInclusion(lhs, rhs))
        # qualified existentials lhs ⊑ ∃P.A
        for role in sorted(roles):
            for filler_name in sorted(concepts):
                rhs_expr = QualifiedExistential(
                    AtomicRole(role), AtomicConcept(filler_name)
                )
                if lhs in unsat:
                    result.add(ConceptInclusion(lhs, rhs_expr))
                    continue
                negated = Not(Some(role, OwlClass(filler_name)))
                if not reasoner.is_satisfiable(
                    lhs_seeds + [negated], lhs_candidate.incoming
                ):
                    result.add(ConceptInclusion(lhs, rhs_expr))

    # negative inclusions (disjointness): sat of the conjunction
    for index, lhs in enumerate(basics):
        lhs_candidate = candidates[id(lhs)]
        for rhs in basics[index:]:
            rhs_candidate = candidates[id(rhs)]
            seeds = []
            incoming: Tuple[str, ...] = ()
            for candidate in (lhs_candidate, rhs_candidate):
                if candidate.seed is not None:
                    seeds.append(candidate.seed)
                incoming = incoming + candidate.incoming
            if lhs == rhs and lhs not in unsat:
                continue  # B ⊑ ¬B iff B unsatisfiable — already covered below
            if (
                lhs in unsat
                or rhs in unsat
                or not reasoner.is_satisfiable(seeds, incoming)
            ):
                result.add(ConceptInclusion(lhs, NegatedConcept(rhs)))
                result.add(ConceptInclusion(rhs, NegatedConcept(lhs)))
    for basic in unsat:
        result.add(ConceptInclusion(basic, NegatedConcept(basic)))

    # role inclusions from the (saturated) role hierarchy
    for sub in sorted(roles):
        for super_ in sorted(roles):
            if sub != super_ and reasoner.is_subrole(sub, super_):
                result.add(RoleInclusion(AtomicRole(sub), AtomicRole(super_)))
    return result


def semantic_approximation(
    ontology: OwlOntology,
    mode: str = "per_axiom",
    name: Optional[str] = None,
) -> TBox:
    """Approximate *ontology* into DL-Lite (paper's per-axiom scheme).

    ``mode="per_axiom"``: each axiom α is approximated in isolation over
    sig(α) — fast, sound, but can miss inferences that need several
    axioms at once.  ``mode="global"``: one reasoner over the whole
    ontology, candidates over the full signature — complete w.r.t. the
    candidate language, significantly slower.
    """
    tbox = TBox(name=name or f"{ontology.name}-{mode}")
    for class_name in sorted(ontology.class_names()):
        tbox.declare(AtomicConcept(class_name))
    for role_name in sorted(ontology.role_names()):
        tbox.declare(AtomicRole(role_name))

    if mode == "global":
        reasoner = OwlReasoner(ontology)
        axioms = entailed_dllite_axioms(
            reasoner,
            sorted(ontology.class_names()),
            sorted(ontology.role_names()),
        )
        tbox.extend(axioms)
        return tbox
    if mode != "per_axiom":
        raise ValueError(f"unknown approximation mode {mode!r}")

    for axiom in ontology:
        if isinstance(axiom, OwlSubPropertyOf):
            tbox.add(RoleInclusion(AtomicRole(axiom.lhs), AtomicRole(axiom.rhs)))
            continue
        single = OwlOntology([axiom], name="single")
        reasoner = OwlReasoner(single)
        concepts = sorted(
            {c.name for c in class_signature(axiom.lhs) | class_signature(axiom.rhs)}
        )
        roles = sorted(single.role_names())
        tbox.extend(entailed_dllite_axioms(reasoner, concepts, roles))
    return tbox
