"""Unit tests for the relational engine (tables, algebra, SQL parser)."""

import pytest

from repro.errors import MappingError, SyntaxError_
from repro.obda.sql import (
    Condition,
    Const,
    Database,
    Join,
    Projection,
    Rename,
    Scan,
    Selection,
    Table,
    UnionAll,
    evaluate,
    parse_sql,
)


@pytest.fixture
def db():
    database = Database("campus")
    database.create_table(
        "staff",
        ["id", "name", "role"],
        [(1, "ada", "prof"), (2, "alan", "prof"), (3, "grace", "lecturer")],
    )
    database.create_table(
        "teaching", ["staff_id", "course"], [(1, "logic"), (2, "compilers"), (1, "sets")]
    )
    return database


# -- tables / database ---------------------------------------------------------


def test_table_rejects_arity_mismatch():
    table = Table("t", ["a", "b"])
    with pytest.raises(MappingError):
        table.insert((1,))


def test_table_rejects_duplicate_columns():
    with pytest.raises(MappingError):
        Table("t", ["a", "a"])


def test_database_lookups(db):
    assert "staff" in db
    assert len(db["staff"]) == 3
    with pytest.raises(MappingError):
        db.table("nope")
    with pytest.raises(MappingError):
        db.create_table("staff", ["x"])


def test_generation_moves_on_every_schema_change_and_insert():
    from repro.runtime import FaultInjector, FaultSpec, FaultyDatabase, RetryPolicy

    database = Database("generations")
    views = [
        database.with_retry(RetryPolicy()),
        FaultyDatabase(database, FaultInjector(FaultSpec())),
    ]
    stamps = [database.generation]

    def moved() -> bool:
        stamps.append(database.generation)
        for view in views:
            assert view.generation == database.generation
        return stamps[-1] > stamps[-2]

    staff = database.create_table("staff", ["id"])
    assert moved()
    staff.insert((1,))
    assert moved()
    courses = Table("course", ["id"], [(1,), (2,)])
    database.add_table(courses)
    assert moved()
    courses.insert((3,))
    assert moved()
    views[0].create_table("room", ["id"], [(1,)])
    assert moved()
    assert "room" in database
    database["room"].insert_many([(2,), (3,)])
    assert moved()
    with pytest.raises(MappingError):
        database.create_table("staff", ["id"])
    Table("loose", ["id"]).insert((1,))  # held by no database
    assert not moved()


def test_generation_of_a_shared_table_moves_every_holder():
    shared = Table("shared", ["id"])
    first, second = Database("first"), Database("second")
    first.add_table(shared)
    second.add_table(shared)
    before = (first.generation, second.generation)
    shared.insert((1,))
    assert first.generation == before[0] + 1
    assert second.generation == before[1] + 1


# -- algebra ----------------------------------------------------------------------


def test_scan_qualifies_columns(db):
    result = evaluate(Scan("staff"), db)
    assert result.columns == ("staff.id", "staff.name", "staff.role")
    assert len(result) == 3


def test_selection_with_constant(db):
    expr = Selection(Scan("staff"), (Condition("role", Const("prof"), "="),))
    assert len(evaluate(expr, db)) == 2


def test_selection_not_equal(db):
    expr = Selection(Scan("staff"), (Condition("role", Const("prof"), "!="),))
    result = evaluate(expr, db)
    assert [row[1] for row in result.rows] == ["grace"]


def test_projection_renames_and_dedupes(db):
    expr = Projection(Scan("staff"), ("role",), ("r",))
    result = evaluate(expr, db)
    assert result.columns == ("r",)
    assert sorted(result.rows) == [("lecturer",), ("prof",)]


def test_join_on_columns(db):
    expr = Join(Scan("staff"), Scan("teaching"), on=(("staff.id", "teaching.staff_id"),))
    result = evaluate(expr, db)
    assert len(result) == 3
    names = {row[result.column_index("staff.name")] for row in result.rows}
    assert names == {"ada", "alan"}


def test_cross_join_empty_on(db):
    expr = Join(Scan("staff"), Scan("teaching"), on=())
    assert len(evaluate(expr, db)) == 9


def test_union_all_checks_arity(db):
    expr = UnionAll((Projection(Scan("staff"), ("id",)), Scan("teaching")))
    with pytest.raises(MappingError):
        evaluate(expr, db)


def test_rename_prefixes(db):
    expr = Rename(Projection(Scan("staff"), ("id",)), "m1")
    result = evaluate(expr, db)
    assert result.columns == ("m1.id",)


def test_ambiguous_column_rejected(db):
    expr = Join(Scan("staff", "s1"), Scan("staff", "s2"), on=())
    with pytest.raises(MappingError):
        evaluate(Selection(expr, (Condition("id", Const(1), "="),)), db)


# -- SQL parser -----------------------------------------------------------------


def test_parse_simple_select(db):
    result = evaluate(parse_sql("SELECT id, name FROM staff WHERE role = 'prof'"), db)
    assert sorted(result.rows) == [(1, "ada"), (2, "alan")]


def test_parse_join(db):
    sql = "SELECT s.name, t.course FROM staff s JOIN teaching t ON s.id = t.staff_id"
    result = evaluate(parse_sql(sql), db)
    assert ("ada", "logic") in result.rows
    assert len(result) == 3


def test_parse_comma_join_with_where(db):
    sql = (
        "SELECT name, course FROM staff, teaching "
        "WHERE staff.id = teaching.staff_id AND role = 'prof'"
    )
    result = evaluate(parse_sql(sql), db)
    assert len(result) == 3


def test_parse_union(db):
    sql = "SELECT id FROM staff WHERE role = 'prof' UNION SELECT staff_id FROM teaching"
    result = evaluate(parse_sql(sql), db)
    assert sorted(set(result.rows)) == [(1,), (2,)]


def test_parse_star(db):
    result = evaluate(parse_sql("SELECT * FROM staff"), db)
    assert len(result.columns) == 3


def test_parse_numeric_literal(db):
    result = evaluate(parse_sql("SELECT name FROM staff WHERE id = 2"), db)
    assert result.rows == [("alan",)]


def test_parse_string_escape():
    database = Database()
    database.create_table("t", ["v"], [("it's",)])
    result = evaluate(parse_sql("SELECT v FROM t WHERE v = 'it''s'"), database)
    assert len(result) == 1


def test_parse_errors():
    with pytest.raises(SyntaxError_):
        parse_sql("SELECT FROM t")
    with pytest.raises(SyntaxError_):
        parse_sql("SELECT a FROM t WHERE a <")
    with pytest.raises(SyntaxError_):
        parse_sql("SELECT a FROM t extra garbage !")
