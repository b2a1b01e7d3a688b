"""Unit tests for the mapping layer."""

import pytest

from repro.dllite import (
    AtomicAttribute,
    AtomicConcept,
    AtomicRole,
    AttributeAssertion,
    ConceptAssertion,
    ConceptInclusion,
    Individual,
    RoleAssertion,
    RoleInclusion,
    TBox,
)
from repro.errors import MappingError
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    OBDASystem,
    TargetAtom,
)
from repro.obda.mapping import IriTemplate, ValueColumn
from repro.testkit.generators import direct_mapping_system


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "emp", ["pid", "dept", "wage"], [(1, "cs", 100), (2, "math", 90)]
    )
    return database


def professor_mapping():
    return MappingAssertion(
        "SELECT pid, dept, wage FROM emp",
        [
            TargetAtom(AtomicConcept("Professor"), (IriTemplate("person/{pid}"),)),
            TargetAtom(
                AtomicRole("worksFor"),
                (IriTemplate("person/{pid}"), IriTemplate("dept/{dept}")),
            ),
            TargetAtom(
                AtomicAttribute("salary"),
                (IriTemplate("person/{pid}"), ValueColumn("wage")),
            ),
        ],
        identifier="m_prof",
    )


def test_template_placeholders():
    template = IriTemplate("a/{x}/b/{y}")
    assert template.placeholders == ("x", "y")
    assert template.apply({"x": 1, "y": "q"}) == Individual("a/1/b/q")
    with pytest.raises(MappingError):
        template.apply({"x": 1})


@pytest.mark.parametrize(
    "pattern, text, values",
    [
        # parse is the inverse of render: a trailing newline is part of
        # the value, or no template without placeholders renders it
        ("p/{s}", "p/1\n", ("1\n",)),
        ("c/fixed", "c/fixed\n", None),
        ("p/{s}", "p/a\nb", ("a\nb",)),
    ],
)
def test_parse_reads_values_that_hold_a_newline(pattern, text, values):
    template = IriTemplate(pattern)
    assert template.parse(text) == values
    if values is not None:
        assert template.render(values) == Individual(text)


def test_target_atom_arity_validation():
    with pytest.raises(MappingError):
        TargetAtom(AtomicConcept("A"), (IriTemplate("a/{x}"), IriTemplate("b/{y}")))
    with pytest.raises(MappingError):
        TargetAtom(AtomicRole("P"), (IriTemplate("a/{x}"),))
    with pytest.raises(MappingError):
        TargetAtom(AtomicRole("P"), (IriTemplate("a/{x}"), ValueColumn("v")))
    with pytest.raises(MappingError):
        TargetAtom(AtomicAttribute("u"), (ValueColumn("v"), ValueColumn("w")))


def test_mapping_needs_targets():
    with pytest.raises(MappingError):
        MappingAssertion("SELECT pid FROM emp", [])


def test_materialize_builds_virtual_abox(db):
    mappings = MappingCollection([professor_mapping()])
    abox = mappings.materialize(db)
    ada = Individual("person/1")
    assert ConceptAssertion(AtomicConcept("Professor"), ada) in abox
    assert RoleAssertion(AtomicRole("worksFor"), ada, Individual("dept/cs")) in abox
    assert AttributeAssertion(AtomicAttribute("salary"), ada, 100) in abox
    assert len(abox) == 6


def test_predicate_extent(db):
    mappings = MappingCollection([professor_mapping()])
    extent = mappings.predicate_extent(db, "worksFor", 2)
    assert (Individual("person/2"), Individual("dept/math")) in extent
    assert mappings.predicate_extent(db, "Unmapped", 1) == set()


def test_multiple_mappings_union(db):
    other = MappingAssertion(
        "SELECT pid FROM emp WHERE wage = 100",
        [TargetAtom(AtomicConcept("TopEarner"), (IriTemplate("person/{pid}"),))],
    )
    mappings = MappingCollection([professor_mapping(), other])
    assert mappings.mapped_predicates() == {
        ("Professor", 1),
        ("worksFor", 2),
        ("salary", 2),
        ("TopEarner", 1),
    }
    assert mappings.predicate_extent(db, "TopEarner", 1) == {(Individual("person/1"),)}


def test_missing_source_column_raises(db):
    bad = MappingAssertion(
        "SELECT pid FROM emp",
        [TargetAtom(AtomicConcept("A"), (IriTemplate("x/{nope}"),))],
    )
    with pytest.raises(MappingError):
        MappingCollection([bad]).predicate_extent(db, "A", 1)


# -- a concept and a role sharing a name ----------------------------------------


def _clashing():
    tbox = TBox(
        [
            ConceptInclusion(AtomicConcept("A"), AtomicConcept("P")),
            RoleInclusion(AtomicRole("R"), AtomicRole("P")),
        ],
        name="clash",
    )
    database = Database("clash")
    database.create_table("c", ["id"], [("a",)])
    database.create_table("r", ["s", "o"], [("c", "b")])
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM c", [TargetAtom(AtomicConcept("P"), (IriTemplate("{id}"),))]
            ),
            MappingAssertion(
                "SELECT s, o FROM r",
                [TargetAtom(AtomicRole("P"), (IriTemplate("{s}"), IriTemplate("{o}")))],
            ),
        ]
    )
    return tbox, mappings, database


@pytest.mark.parametrize(
    "query, expected",
    [
        ("q(x) :- P(x)", {("a",)}),
        ("q(x) :- P(x), P(x, y)", set()),
        ("q(x, y) :- P(x, y)", {("c", "b")}),
    ],
)
def test_a_concept_and_a_role_sharing_a_name_are_mapped_apart(query, expected):
    tbox, mappings, database = _clashing()
    abox = mappings.materialize(database)
    kb = OBDASystem(tbox, abox=abox)
    mapped = OBDASystem(tbox, mappings=mappings, database=database)
    direct = direct_mapping_system(tbox, abox)
    want = {tuple(Individual(name) for name in row) for row in expected}
    try:
        assert kb.certain_answers(query) == want
        for method in ("perfectref", "presto", "perfectref-sql", "perfectref-sqlite"):
            assert mapped.certain_answers(query, method=method) == want, method
            assert direct.certain_answers(query, method=method) == want, method
    finally:
        mapped.sql_backend().close()
        direct.sql_backend().close()
    assert mappings.predicate_extent(database, "P", 1) == {(Individual("a"),)}
    assert mappings.predicate_extent(database, "P", 2) == {(Individual("c"), Individual("b"))}
    # the concept keeps its table name; the role gets one of its own
    assert [table.name for table in direct.database.tables()] == ["t_P", "t2_P"]
