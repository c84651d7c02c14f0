"""Unit tests for the mini SQL dialect."""

import pytest

from repro.errors import SqlError
from repro.rdb import Database, run_sql


@pytest.fixture
def db():
    database = Database()
    run_sql(
        database,
        "CREATE TABLE emp (name str, dept str, salary int)",
    )
    run_sql(
        database,
        "INSERT INTO emp (name, dept, salary) VALUES "
        "('ann', 'eng', 120), ('bob', 'eng', 100), "
        "('cat', 'ops', 90), ('dan', 'ops', NULL)",
    )
    return database


class TestSelect:
    def test_select_star(self, db):
        assert len(run_sql(db, "SELECT * FROM emp")) == 4

    def test_projection_and_alias(self, db):
        rows = run_sql(db, "SELECT name AS who FROM emp WHERE salary > 95")
        assert [r["who"] for r in rows] == ["ann", "bob"]

    def test_where_connectives(self, db):
        rows = run_sql(
            db,
            "SELECT name FROM emp "
            "WHERE dept = 'eng' AND NOT (salary < 110)",
        )
        assert [r["name"] for r in rows] == ["ann"]

    def test_is_null(self, db):
        rows = run_sql(db, "SELECT name FROM emp WHERE salary IS NULL")
        assert [r["name"] for r in rows] == ["dan"]
        rows = run_sql(
            db, "SELECT name FROM emp WHERE salary IS NOT NULL"
        )
        assert len(rows) == 3

    def test_in_list(self, db):
        rows = run_sql(
            db, "SELECT name FROM emp WHERE salary IN (90, 120, 7)"
        )
        assert [r["name"] for r in rows] == ["ann", "cat"]
        rows = run_sql(db, "SELECT name FROM emp WHERE dept IN ('ops')")
        assert [r["name"] for r in rows] == ["cat", "dan"]

    def test_in_list_three_valued(self, db):
        # NULL on the left is unknown, under NOT too.
        names = "SELECT name FROM emp WHERE "
        assert run_sql(db, names + "salary IN (90)") == [{"name": "cat"}]
        rows = run_sql(db, names + "NOT (salary IN (90))")
        assert [r["name"] for r in rows] == ["ann", "bob"]
        # NULL in the list: a hit is still true, a miss is unknown.
        rows = run_sql(db, names + "salary IN (90, NULL)")
        assert [r["name"] for r in rows] == ["cat"]
        assert run_sql(db, names + "NOT (salary IN (90, NULL))") == []

    def test_in_empty_list_is_false_even_for_null(self, db):
        assert run_sql(db, "SELECT name FROM emp WHERE salary IN ()") == []
        rows = run_sql(db, "SELECT name FROM emp WHERE NOT (salary IN ())")
        assert len(rows) == 4

    def test_in_compares_like_equals(self, db):
        # 2 and 2.0 are one number; '2' is not a number.
        run_sql(db, "CREATE TABLE v (x)")
        run_sql(db, "INSERT INTO v (x) VALUES (2), (2.0), ('2'), (3)")
        assert len(run_sql(db, "SELECT x FROM v WHERE x IN (2.0)")) == 2
        assert len(run_sql(db, "SELECT x FROM v WHERE x IN (2)")) == 2
        assert run_sql(db, "SELECT x FROM v WHERE x IN ('2')") == [
            {"x": "2"}
        ]

    def test_in_takes_literals_only(self, db):
        with pytest.raises(SqlError):
            run_sql(db, "SELECT name FROM emp WHERE salary IN (salary)")
        with pytest.raises(SqlError):
            run_sql(db, "SELECT name FROM emp WHERE salary IN (1, )")

    def test_group_by_with_aggregates(self, db):
        rows = run_sql(
            db,
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total "
            "FROM emp GROUP BY dept",
        )
        by_dept = {r["dept"]: r for r in rows}
        assert by_dept["eng"]["n"] == 2
        assert by_dept["ops"]["total"] == 90

    def test_having(self, db):
        rows = run_sql(
            db,
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept "
            "HAVING n > 1",
        )
        assert len(rows) == 2

    def test_collect_aggregate(self, db):
        rows = run_sql(
            db,
            "SELECT dept, COLLECT(name) AS names FROM emp GROUP BY dept",
        )
        by_dept = {r["dept"]: r["names"] for r in rows}
        assert by_dept["eng"] == ["ann", "bob"]

    def test_order_and_limit(self, db):
        rows = run_sql(
            db, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2"
        )
        assert [r["name"] for r in rows] == ["ann", "bob"]

    def test_distinct(self, db):
        rows = run_sql(db, "SELECT DISTINCT dept FROM emp")
        assert len(rows) == 2

    def test_join_with_aliases(self, db):
        run_sql(db, "CREATE TABLE loc (dept str, floor int)")
        run_sql(
            db,
            "INSERT INTO loc (dept, floor) VALUES ('eng', 3), ('ops', 1)",
        )
        rows = run_sql(
            db,
            "SELECT e.name, l.floor FROM emp e, loc l "
            "WHERE e.dept = l.dept AND l.floor = 3",
        )
        assert {r["e.name"] for r in rows} == {"ann", "bob"}

    def test_aggregate_without_group_by(self, db):
        [row] = run_sql(db, "SELECT AVG(salary) AS a FROM emp")
        assert abs(row["a"] - (120 + 100 + 90) / 3) < 1e-9

    def test_bare_column_with_global_aggregate_rejected(self, db):
        with pytest.raises(SqlError):
            run_sql(db, "SELECT name, COUNT(*) AS n FROM emp")


class TestDml:
    def test_update(self, db):
        count = run_sql(
            db, "UPDATE emp SET salary = 95 WHERE dept = 'ops'"
        )
        assert count == 2
        rows = run_sql(db, "SELECT name FROM emp WHERE salary = 95")
        assert len(rows) == 2

    def test_delete(self, db):
        assert run_sql(db, "DELETE FROM emp WHERE dept = 'eng'") == 2
        assert len(run_sql(db, "SELECT * FROM emp")) == 2

    def test_delete_in(self, db):
        assert run_sql(
            db, "DELETE FROM emp WHERE name IN ('ann', 'dan', 'zed')"
        ) == 2
        assert len(run_sql(db, "SELECT * FROM emp")) == 2

    def test_delete_all(self, db):
        run_sql(db, "DELETE FROM emp")
        assert run_sql(db, "SELECT * FROM emp") == []

    def test_insert_arity_checked(self, db):
        with pytest.raises(SqlError):
            run_sql(db, "INSERT INTO emp (name, dept) VALUES ('x')")


class TestDdlAndLexical:
    def test_create_with_types_and_not_null(self):
        db = Database()
        table = run_sql(
            db, "CREATE TABLE t (a int NOT NULL, b text, c)"
        )
        assert not table.schema.column("a").nullable
        assert table.schema.column("b").type == "str"

    def test_drop(self, db):
        run_sql(db, "DROP TABLE emp")
        assert not db.has_table("emp")

    def test_quoted_identifiers(self):
        db = Database()
        run_sql(db, 'CREATE TABLE "COND-E" (wme_tag int)')
        run_sql(db, 'INSERT INTO "COND-E" (wme_tag) VALUES (1)')
        rows = run_sql(db, 'SELECT * FROM "COND-E"')
        assert rows == [{"wme_tag": 1}]

    def test_string_escaping(self, db):
        run_sql(
            db,
            "INSERT INTO emp (name, dept, salary) "
            "VALUES ('o''brien', 'eng', 1)",
        )
        rows = run_sql(db, "SELECT name FROM emp WHERE salary = 1")
        assert rows[0]["name"] == "o'brien"

    def test_keywords_case_insensitive(self, db):
        rows = run_sql(db, "select name from emp where dept = 'eng'")
        assert len(rows) == 2

    def test_tokenizer_error(self, db):
        with pytest.raises(SqlError):
            run_sql(db, "SELECT @ FROM emp")

    def test_parse_error_messages(self, db):
        with pytest.raises(SqlError):
            run_sql(db, "SELECT FROM emp")
        with pytest.raises(SqlError):
            run_sql(db, "FROBNICATE emp")
