"""Seeded input generators for the conformance testkit.

Every generator takes an explicit ``random.Random`` so a conformance run
is fully determined by its seed: the same seed replays the same
ontologies, ABoxes, queries and mapping layouts.

Two ontology scales are produced:

* :func:`random_profile_tbox` — a randomized
  :class:`~repro.corpus.generator.OntologyProfile` fed through the
  Figure 1 corpus generator.  Structured like the benchmark ontologies
  (taxonomy + role box + existentials + disjointness), small enough that
  the quadratic baselines stay fast;
* :func:`random_tiny_tbox` — unstructured axiom soup over a signature of
  at most a handful of predicates, the only scale where the brute-force
  finite-model oracle of :mod:`repro.dllite.semantics` is affordable.

For the end-to-end OBDA diffs, :func:`random_abox` populates a TBox
signature with individuals, :func:`direct_mapping_system` lowers that
ABox into one relational table per predicate plus the corresponding
GAV mappings (so SQL-unfolded evaluation is comparable answer-for-answer
with virtual-extent evaluation), and :func:`random_queries` draws small
connected conjunctive queries over the signature.  :func:`random_appends`
draws assertions to append to an ABox already answered over, and
:func:`append_direct` inserts them into a direct mapping's tables.
:func:`with_constants` binds query variables to individual names, so
one query shape is asked with several constants.
:func:`with_literal_names` renames three individuals ``1``, ``1.0`` and
``True``, which the direct mapping stores as typed cells in every other
table — mixed-type data whose answers the string-form identity of the
executors must keep unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..corpus.generator import OntologyProfile, generate
from ..dllite.abox import (
    ABox,
    AttributeAssertion,
    ConceptAssertion,
    Individual,
    RoleAssertion,
)
from ..dllite.axioms import (
    AttributeInclusion,
    Axiom,
    ConceptInclusion,
    RoleInclusion,
)
from ..dllite.syntax import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeDomain,
    ExistentialRole,
    InverseRole,
    NegatedAttribute,
    NegatedConcept,
    NegatedRole,
    QualifiedExistential,
)
from ..dllite.tbox import TBox
from ..obda.queries import Atom, ConjunctiveQuery, Constant, UnionQuery, Variable

__all__ = [
    "FuzzProfile",
    "append_direct",
    "direct_mapping_system",
    "random_abox",
    "random_appends",
    "random_profile_tbox",
    "random_queries",
    "random_tiny_tbox",
    "with_constants",
    "with_literal_names",
]

#: Individual names that read as Python literals, each mapped to the
#: typed cell whose ``str()`` it is (see with_literal_names).
LITERAL_CELLS = {"1": 1, "1.0": 1.0, "True": True}


@dataclass(frozen=True)
class FuzzProfile:
    """Size knobs of one conformance round (kept laptop-small on purpose)."""

    max_concepts: int = 40
    max_roles: int = 8
    max_attributes: int = 3
    max_disjointness: int = 6
    max_unsat_seeds: int = 1
    #: tiny-TBox knobs (brute-force semantics scale)
    tiny_concepts: int = 3
    tiny_roles: int = 1
    tiny_attributes: int = 1
    tiny_axioms: int = 7
    #: data/query knobs
    max_individuals: int = 8
    max_assertions: int = 24
    max_queries: int = 4
    max_query_atoms: int = 3


def random_profile_tbox(
    rng: random.Random, profile: Optional[FuzzProfile] = None
) -> TBox:
    """A structured, corpus-generated TBox with randomized shape parameters."""
    sizes = profile or FuzzProfile()
    concepts = rng.randint(6, sizes.max_concepts)
    roles = rng.randint(0, sizes.max_roles)
    spec = OntologyProfile(
        name=f"fuzz-{rng.randrange(10**6)}",
        concepts=concepts,
        roles=roles,
        attributes=rng.randint(0, sizes.max_attributes),
        depth=rng.randint(2, 6),
        roots=rng.randint(1, 3),
        extra_parent_fraction=rng.uniform(0.0, 0.3),
        extra_parents_max=rng.randint(1, 2),
        role_depth=rng.randint(1, 3),
        role_inverse_fraction=rng.uniform(0.0, 0.4),
        domain_range_fraction=rng.uniform(0.0, 0.8),
        existential_fraction=rng.uniform(0.0, 0.7),
        qualified_fraction=rng.uniform(0.0, 0.5),
        disjointness=rng.randint(0, sizes.max_disjointness),
        role_disjointness=rng.randint(0, 2) if roles >= 2 else 0,
        unsat_seeds=rng.randint(0, sizes.max_unsat_seeds),
        seed=rng.randrange(2**31),
    )
    return generate(spec)


def random_tiny_tbox(
    rng: random.Random, profile: Optional[FuzzProfile] = None
) -> TBox:
    """Unstructured axiom soup over ≤ ~4 predicates (semantics-oracle scale)."""
    sizes = profile or FuzzProfile()
    concepts = [AtomicConcept(f"C{i}") for i in range(sizes.tiny_concepts)]
    roles = [AtomicRole(f"P{i}") for i in range(sizes.tiny_roles)]
    # an attribute only sometimes, to keep the average signature tiny
    attributes = (
        [AtomicAttribute(f"U{i}") for i in range(sizes.tiny_attributes)]
        if rng.random() < 0.4
        else []
    )
    basic_roles: List = []
    for role in roles:
        basic_roles.extend((role, InverseRole(role)))
    basics: List = (
        list(concepts)
        + [ExistentialRole(q) for q in basic_roles]
        + [AttributeDomain(u) for u in attributes]
    )

    def concept_rhs():
        choice = rng.random()
        if choice < 0.55:
            return rng.choice(basics)
        if choice < 0.75 and basic_roles:
            return QualifiedExistential(rng.choice(basic_roles), rng.choice(concepts))
        return NegatedConcept(rng.choice(basics))

    axioms: List[Axiom] = []
    for _ in range(rng.randint(1, sizes.tiny_axioms)):
        draw = rng.random()
        if basic_roles and draw < 0.25:
            lhs = rng.choice(basic_roles)
            rhs = (
                NegatedRole(rng.choice(basic_roles))
                if rng.random() < 0.25
                else rng.choice(basic_roles)
            )
            axioms.append(RoleInclusion(lhs, rhs))
        elif len(attributes) >= 1 and draw < 0.35:
            lhs_attr = rng.choice(attributes)
            rhs_attr = rng.choice(attributes)
            axioms.append(
                AttributeInclusion(
                    lhs_attr,
                    NegatedAttribute(rhs_attr)
                    if rng.random() < 0.25
                    else rhs_attr,
                )
            )
        else:
            axioms.append(ConceptInclusion(rng.choice(basics), concept_rhs()))
    tbox = TBox(axioms, name=f"tiny-{rng.randrange(10**6)}")
    for concept in concepts:
        tbox.declare(concept)
    for role in roles:
        tbox.declare(role)
    for attribute in attributes:
        tbox.declare(attribute)
    return tbox


def random_abox(
    rng: random.Random, tbox: TBox, profile: Optional[FuzzProfile] = None
) -> ABox:
    """A random ABox over *tbox*'s signature (individuals ``a0..aN``)."""
    sizes = profile or FuzzProfile()
    individuals = [
        Individual(f"a{i}") for i in range(rng.randint(2, sizes.max_individuals))
    ]
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    roles = sorted(tbox.signature.roles, key=lambda r: r.name)
    attributes = sorted(tbox.signature.attributes, key=lambda a: a.name)
    abox = ABox()
    for _ in range(rng.randint(1, sizes.max_assertions)):
        kind = rng.random()
        if concepts and (kind < 0.5 or not roles and not attributes):
            abox.add(
                ConceptAssertion(rng.choice(concepts), rng.choice(individuals))
            )
        elif roles and (kind < 0.85 or not attributes):
            abox.add(
                RoleAssertion(
                    rng.choice(roles),
                    rng.choice(individuals),
                    rng.choice(individuals),
                )
            )
        elif attributes:
            abox.add(
                AttributeAssertion(
                    rng.choice(attributes),
                    rng.choice(individuals),
                    rng.randint(0, 3),
                )
            )
    return abox


def random_appends(
    rng: random.Random, abox: ABox, count: int, queries: Sequence[UnionQuery] = ()
) -> List:
    """*count* assertions over predicates *abox* already has rows for,
    between its individuals and one fresh individual ``new``, so that
    appending them can add answers as well as repeat known ones.  The
    predicates the *queries* mention are preferred when *abox* has rows
    for any of them."""
    known = sorted(abox, key=repr)
    asked = {atom.predicate for query in queries for cq in query for atom in cq.atoms}
    known = [a for a in known if _predicate_name(a) in asked] or known
    if not known:
        return []
    individuals = sorted(abox.individuals(), key=lambda i: i.name)
    individuals.append(Individual("new"))
    appended = []
    for _ in range(count):
        like = rng.choice(known)
        if isinstance(like, ConceptAssertion):
            appended.append(ConceptAssertion(like.concept, rng.choice(individuals)))
        elif isinstance(like, RoleAssertion):
            appended.append(
                RoleAssertion(like.role, rng.choice(individuals), rng.choice(individuals))
            )
        else:
            appended.append(
                AttributeAssertion(
                    like.attribute, rng.choice(individuals), rng.randint(0, 3)
                )
            )
    return appended


def with_literal_names(abox: ABox) -> ABox:
    """*abox* with individuals ``a0``-``a2`` renamed ``1``, ``1.0``, ``True``."""
    renames = {f"a{i}": Individual(name) for i, name in enumerate(LITERAL_CELLS)}

    def renamed(assertion):
        changes = {}
        for field in dataclasses.fields(assertion):
            value = getattr(assertion, field.name)
            if isinstance(value, Individual) and value.name in renames:
                changes[field.name] = renames[value.name]
        return dataclasses.replace(assertion, **changes)

    return ABox(renamed(assertion) for assertion in abox)


def direct_mapping_system(tbox: TBox, abox: ABox):
    """Lower *abox* into a relational database under a direct GAV mapping.

    One table per populated predicate, one mapping assertion per table,
    with identity IRI templates — so the individuals coming back from the
    SQL pipeline are literally the ABox individuals and answer sets are
    comparable with knowledge-base mode using plain ``==``.  Every other
    table stores the individuals named in :data:`LITERAL_CELLS` as their
    typed cells; a cell's string form, hence its IRI, is still the name.
    """
    from ..obda.mapping import (
        IriTemplate,
        MappingAssertion,
        MappingCollection,
        TargetAtom,
        ValueColumn,
    )
    from ..obda.sql.database import Database
    from ..obda.system import OBDASystem

    database = Database(name=f"{tbox.name}-direct")
    mappings = MappingCollection()
    concept_rows: dict = {}
    role_rows: dict = {}
    attribute_rows: dict = {}
    for assertion in abox:
        if isinstance(assertion, ConceptAssertion):
            concept_rows.setdefault(assertion.concept.name, set()).add(
                (assertion.individual.name,)
            )
        elif isinstance(assertion, RoleAssertion):
            role_rows.setdefault(assertion.role.name, set()).add(
                (assertion.subject.name, assertion.object.name)
            )
        else:
            attribute_rows.setdefault(assertion.attribute.name, set()).add(
                (assertion.subject.name, assertion.value)
            )
    tables = itertools.count()

    def lower(rows, individuals: int):
        """Typed cells for the first *individuals* columns of every other table."""
        if next(tables) % 2 == 0:
            return rows
        return [_typed(row, individuals) for row in rows]

    for name, rows in sorted(concept_rows.items()):
        table = f"t_{name}"
        database.create_table(table, ["s"], lower(sorted(rows), 1))
        mappings.add(
            MappingAssertion(
                f"SELECT s FROM {table}",
                [TargetAtom(AtomicConcept(name), (IriTemplate("{s}"),))],
            )
        )
    for name, rows in sorted(role_rows.items()):
        table = f"t_{name}"
        database.create_table(table, ["s", "o"], lower(sorted(rows), 2))
        mappings.add(
            MappingAssertion(
                f"SELECT s, o FROM {table}",
                [
                    TargetAtom(
                        AtomicRole(name),
                        (IriTemplate("{s}"), IriTemplate("{o}")),
                    )
                ],
            )
        )
    for name, rows in sorted(attribute_rows.items()):
        table = f"t_{name}"
        database.create_table(table, ["s", "v"], lower(sorted(rows, key=str), 1))
        from ..dllite.syntax import AtomicAttribute

        mappings.add(
            MappingAssertion(
                f"SELECT s, v FROM {table}",
                [
                    TargetAtom(
                        AtomicAttribute(name),
                        (IriTemplate("{s}"), ValueColumn("v")),
                    )
                ],
            )
        )
    return OBDASystem(tbox, mappings=mappings, database=database)


def _typed(row: tuple, individuals: int) -> tuple:
    """*row* with its first *individuals* cells typed per LITERAL_CELLS."""
    return (
        tuple(LITERAL_CELLS.get(cell, cell) for cell in row[:individuals])
        + row[individuals:]
    )


def _predicate_name(assertion) -> str:
    if isinstance(assertion, ConceptAssertion):
        return assertion.concept.name
    if isinstance(assertion, RoleAssertion):
        return assertion.role.name
    return assertion.attribute.name


def append_direct(system, assertions) -> None:
    """Insert *assertions* into the tables of a
    :func:`direct_mapping_system`, each row lowered as that function
    lowered its table's rows (typed cells in every other table, in the
    order it created them).  Every assertion's predicate must have a
    table already."""
    typed = {table.name for table in system.database.tables()[1::2]}
    for assertion in assertions:
        if isinstance(assertion, ConceptAssertion):
            row = (assertion.individual.name,)
        elif isinstance(assertion, RoleAssertion):
            row = (assertion.subject.name, assertion.object.name)
        else:
            row = (assertion.subject.name, assertion.value)
        table = f"t_{_predicate_name(assertion)}"
        if table in typed:
            row = _typed(row, 2 if isinstance(assertion, RoleAssertion) else 1)
        system.database[table].insert(row)


_VARS = (Variable("x"), Variable("y"), Variable("z"))


def random_queries(
    rng: random.Random, tbox: TBox, profile: Optional[FuzzProfile] = None
) -> List[UnionQuery]:
    """Small connected CQs over *tbox*'s signature, answer variable ``x``."""
    sizes = profile or FuzzProfile()
    concepts = sorted(tbox.signature.concepts, key=lambda c: c.name)
    roles = sorted(tbox.signature.roles, key=lambda r: r.name)
    attributes = sorted(tbox.signature.attributes, key=lambda a: a.name)
    binary = [r.name for r in roles] + [a.name for a in attributes]
    queries: List[UnionQuery] = []
    for index in range(rng.randint(1, sizes.max_queries)):
        atoms: List[Atom] = []
        # First atom always binds x; later atoms chain off already-used vars.
        used: List[Variable] = [_VARS[0]]
        for position in range(rng.randint(1, sizes.max_query_atoms)):
            anchor = rng.choice(used)
            if binary and rng.random() < 0.5:
                other = (
                    _VARS[min(len(used), 2)]
                    if rng.random() < 0.7
                    else rng.choice(used)
                )
                pair = (anchor, other) if rng.random() < 0.5 else (other, anchor)
                atoms.append(Atom(rng.choice(binary), pair))
                if other not in used:
                    used.append(other)
            elif concepts:
                atoms.append(Atom(rng.choice(concepts).name, (anchor,)))
            else:
                break
        if not atoms:
            continue  # empty signature — nothing to ask
        queries.append(
            UnionQuery(
                [ConjunctiveQuery((_VARS[0],), atoms, name=f"fq{index}")],
                name=f"fq{index}",
            )
        )
    return queries


#: a name no generated ABox holds (:func:`random_abox` names its
#: individuals ``a0..aN``)
ABSENT_NAME = "nobody"


def with_constants(
    rng: random.Random, queries: Sequence[UnionQuery], abox: ABox, count: int = 2
) -> List[UnionQuery]:
    """*count* versions of each query of *queries* with some of its
    non-answer variables bound to constants: individual names of *abox*
    and :data:`ABSENT_NAME`, which no ABox holds.

    Per query, which variables are bound and which of them share a
    constant is drawn once, and each version binds those parameters to
    distinct names, other ones than the version before while there are
    enough, so the versions of a query share one template
    (:func:`repro.perf.canonical.template_key`) and differ in their
    constants.  A query without a non-answer variable has no
    versions.
    """
    names = sorted({individual.name for individual in abox.individuals()})
    names.append(ABSENT_NAME)
    bound: List[UnionQuery] = []
    for query in queries:
        cq = query.disjuncts[0]
        free = sorted(
            {term for atom in cq.atoms for term in atom.args if isinstance(term, Variable)}
            - set(cq.answer_vars),
            key=lambda variable: variable.name,
        )
        if not free:
            continue
        chosen = rng.sample(free, rng.randint(1, len(free)))
        parameters = rng.randint(1, min(len(chosen), len(names)))
        # every parameter takes at least one variable
        slots = list(range(parameters)) + [
            rng.randrange(parameters) for _ in chosen[parameters:]
        ]
        rng.shuffle(slots)
        order = rng.sample(names, len(names))
        for version in range(count):
            # consecutive windows of one shuffle: versions differ while
            # there are names enough
            drawn = [
                Constant(order[(version * parameters + i) % len(order)])
                for i in range(parameters)
            ]
            mapping = {variable: drawn[slot] for variable, slot in zip(chosen, slots)}
            name = f"{query.name}c{version}"
            atoms = [atom.substitute(mapping) for atom in cq.atoms]
            bound.append(
                UnionQuery([ConjunctiveQuery(cq.answer_vars, atoms, name)], name=name)
            )
    return bound

