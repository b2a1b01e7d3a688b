"""Unit tests for SQL text rendering of algebra trees."""

import sqlite3

import pytest

from repro.dllite import AtomicConcept, AtomicRole, Individual, parse_tbox
from repro.obda import (
    Database,
    MappingAssertion,
    MappingCollection,
    TargetAtom,
    parse_query,
    parse_sql,
    perfect_ref,
    unfold,
)
from repro.obda.mapping import IriTemplate
from repro.obda.sql import algebra_to_sql, evaluate
from repro.obda.sql.algebra import (
    Condition,
    Const,
    Join,
    Projection,
    Scan,
    Selection,
)


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "staff", ["id", "role"], [(1, "prof"), (2, "lect"), (3, "prof")]
    )
    database.create_table("teaching", ["sid", "course"], [(1, "logic"), (3, "sets")])
    return database


def test_simple_select(db):
    expr = Projection(
        Selection(Scan("staff"), (Condition("role", Const("prof"), "="),)),
        ("staff.id",),
        ("id",),
    )
    sql = algebra_to_sql(expr)
    assert sql == "SELECT DISTINCT staff.id FROM staff WHERE role = 'prof'"


def test_rendered_sql_round_trips_through_the_parser(db):
    """What we render parses back and returns the same rows."""
    original = parse_sql("SELECT id FROM staff WHERE role = 'prof'")
    sql = algebra_to_sql(original)
    reparsed = parse_sql(sql)
    assert {row for row in evaluate(reparsed, db).rows} == {
        row for row in evaluate(original, db).rows
    }


def test_string_literal_escaping():
    expr = Selection(Scan("staff"), (Condition("role", Const("o'brien"), "!="),))
    sql = algebra_to_sql(expr)
    assert "role <> 'o''brien'" in sql


def test_union_renders_at_top_level(db):
    expr = parse_sql("SELECT id FROM staff UNION SELECT sid FROM teaching")
    sql = algebra_to_sql(expr)
    assert sql.count("SELECT DISTINCT") == 2
    assert " UNION " in sql


def test_unfolded_query_sql(db):
    mappings = MappingCollection(
        [
            MappingAssertion(
                "SELECT id FROM staff WHERE role = 'prof'",
                [TargetAtom(AtomicConcept("Professor"), (IriTemplate("p/{id}"),))],
            ),
            MappingAssertion(
                "SELECT sid, course FROM teaching",
                [
                    TargetAtom(
                        AtomicRole("teaches"),
                        (IriTemplate("p/{sid}"), IriTemplate("c/{course}")),
                    )
                ],
            ),
        ]
    )
    tbox = parse_tbox("role teaches\nProfessor isa Teacher\nexists teaches isa Teacher")
    unfolded = unfold(
        perfect_ref(parse_query("q(x) :- Teacher(x)"), tbox), mappings
    )
    sql = unfolded.sql()
    assert "UNION" in sql
    assert "teaching" in sql and "staff" in sql
    # and the SQL text matches what the algebra actually computes
    answers = unfolded.execute(db)
    assert (Individual("p/1"),) in answers
    assert (Individual("p/2"),) not in answers


def _sqlite_from(database):
    """A real sqlite3 replica of *database* (values shipped verbatim)."""
    connection = sqlite3.connect(":memory:")
    for table in database.tables():
        columns = ", ".join(f'"{column}"' for column in table.columns)
        connection.execute(f'CREATE TABLE "{table.name}" ({columns})')
        placeholders = ", ".join("?" for _ in table.columns)
        connection.executemany(
            f'INSERT INTO "{table.name}" VALUES ({placeholders})',
            [tuple(row) for row in table.rows],
        )
    return connection


@pytest.mark.parametrize(
    "text",
    [
        "SELECT id FROM staff WHERE role = 'prof'",
        "SELECT id, role FROM staff WHERE role != 'prof'",
        "SELECT staff.id, course FROM staff JOIN teaching ON id = sid",
        "SELECT id FROM staff WHERE role = 'prof' UNION SELECT sid FROM teaching",
        "SELECT a.id, b.id FROM staff AS a, staff AS b WHERE a.role = b.role",
    ],
)
def test_rendered_sql_executes_on_sqlite(db, text):
    """render → sqlite3 execute → rows equal algebra.evaluate."""
    expression = parse_sql(text)
    sql = algebra_to_sql(expression)
    expected = {tuple(row) for row in evaluate(expression, db).rows}
    connection = _sqlite_from(db)
    try:
        assert set(connection.execute(sql).fetchall()) == expected
    finally:
        connection.close()


def test_null_literal_renders_null_safe():
    equal = Selection(Scan("staff"), (Condition("role", Const(None), "="),))
    assert "role IS NULL" in algebra_to_sql(equal)
    unequal = Selection(Scan("staff"), (Condition("role", Const(None), "!="),))
    assert "role IS NOT NULL" in algebra_to_sql(unequal)


def test_null_condition_executes_on_sqlite(db):
    db.create_table("review", ["rid", "grade"], [(1, "pass"), (2, None), (3, None)])
    expression = Projection(
        Selection(Scan("review"), (Condition("grade", Const(None), "="),)),
        ("review.rid",),
        ("rid",),
    )
    connection = _sqlite_from(db)
    try:
        rows = set(connection.execute(algebra_to_sql(expression)).fetchall())
    finally:
        connection.close()
    assert rows == {(2,), (3,)}


def test_reserved_identifiers_are_quoted():
    expression = Projection(
        Selection(Scan("select"), (Condition("from", Const("x"), "="),)),
        ("select.from",),
        ("order",),
    )
    sql = algebra_to_sql(expression)
    assert 'FROM "select"' in sql
    assert '"select"."from" AS "order"' in sql
    assert '"from" = \'x\'' in sql


def test_exotic_identifiers_are_quoted_and_executable():
    database = Database()
    database.create_table("odd table", ["the id", "group"], [(1, "a"), (2, "b")])
    expression = Projection(
        Selection(Scan("odd table"), (Condition("group", Const("a"), "="),)),
        ("odd table.the id",),
        ("the id",),
    )
    sql = algebra_to_sql(expression)
    assert '"odd table"' in sql and '"the id"' in sql and '"group"' in sql
    connection = _sqlite_from(database)
    try:
        assert set(connection.execute(sql).fetchall()) == {(1,)}
    finally:
        connection.close()


def test_generated_aliases_are_deterministic_and_unique(db):
    parts = parse_sql("SELECT id FROM staff UNION SELECT sid FROM teaching")
    expression = Join(parts, parts, on=())
    sql = algebra_to_sql(expression)
    assert "AS t1" in sql and "AS t2" in sql
    assert sql == algebra_to_sql(expression)  # stable across renders
    connection = _sqlite_from(db)
    try:
        rows = set(connection.execute(sql).fetchall())
    finally:
        connection.close()
    expected = {tuple(row) for row in evaluate(expression, db).rows}
    assert rows == expected


def test_empty_unfolding_sql_comment():
    unfolded = unfold(
        parse_query("q(x) :- Unmapped(x)"), MappingCollection([])
    )
    assert unfolded.sql().startswith("--")
