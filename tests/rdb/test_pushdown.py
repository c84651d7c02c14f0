"""Differential tests: native sqlite pushdown vs the interpreter.

Every query in the battery runs twice — against a memory-backed
database (the reference tree-walking interpreter) and against a
sqlite-backed one (where :mod:`repro.rdb.pushdown` renders it to real
SQL when it can) — and the results must be *identical*, rows and
order.  Queries the renderer declines (HAVING, ambiguous columns, …)
fall back to the interpreter on the sqlite backend, so they are
included too: the fallback seam must be invisible.
"""

import pytest

from repro.errors import DatabaseError
from repro.rdb import Database
from repro.rdb.memory_backend import MemoryBackend
from repro.rdb.pushdown import build_select
from repro.rdb.sql import parse_sql, run_sql
from repro.rdb.sqlite_backend import _MAX_PARAMS, SqliteBackend

PLAYERS = [
    ("Jack", "A", 10, 3),
    ("Janice", "A", 7, None),
    ("Sue", "B", 10, 1),
    ("Jack", "B", 2, None),
    ("Sue", "B", 5, 2),
    ("Ann", "C", None, 4),
]

TEAMS = [
    ("A", "east"),
    ("B", "west"),
    ("C", None),
]


def populate(db):
    players = db.create_table("player", ["name", "team", "score", "rank"])
    players.create_index("team")
    players.insert_many(
        {"name": n, "team": t, "score": s, "rank": r}
        for n, t, s, r in PLAYERS
    )
    teams = db.create_table("team", ["id", "coast"])
    teams.insert_many({"id": i, "coast": c} for i, c in TEAMS)
    return db


@pytest.fixture
def pair():
    memory = populate(Database(MemoryBackend()))
    sqlite = populate(Database(SqliteBackend()))
    yield memory, sqlite
    memory.close()
    sqlite.close()


#: (sql, expect_native) — expect_native pins which side of the
#: pushdown/fallback seam each query exercises, so a renderer
#: regression cannot silently turn the whole battery into
#: interpreter-vs-interpreter.
SELECTS = [
    ("SELECT * FROM player", True),
    ("SELECT name, score FROM player WHERE team = 'B'", True),
    ("SELECT name FROM player WHERE score > 5 AND team != 'A'", True),
    ("SELECT name FROM player WHERE score IS NULL", True),
    ("SELECT name FROM player WHERE rank IS NOT NULL", True),
    ("SELECT name FROM player WHERE team = 'A' OR score = 5", True),
    ("SELECT name FROM player WHERE NOT (team = 'B')", True),
    ("SELECT DISTINCT team FROM player", True),
    ("SELECT DISTINCT name FROM player ORDER BY name", True),
    ("SELECT name FROM player ORDER BY score DESC, name ASC", True),
    ("SELECT name FROM player ORDER BY player.rank", True),
    ("SELECT name FROM player LIMIT 3", True),
    ("SELECT name FROM player WHERE team = 'B' ORDER BY name LIMIT 2",
     True),
    ("SELECT COUNT(*) AS n FROM player", True),
    ("SELECT COUNT(score) AS n FROM player", True),
    ("SELECT COUNT(DISTINCT name) AS n FROM player", True),
    ("SELECT SUM(score) AS total, AVG(score) AS mean FROM player", True),
    ("SELECT MIN(score) AS lo, MAX(score) AS hi FROM player", True),
    ("SELECT SUM(score) AS total FROM player WHERE team = 'Z'", True),
    ("SELECT team, COUNT(*) AS n FROM player GROUP BY team", True),
    ("SELECT team, SUM(score) AS total FROM player "
     "GROUP BY team ORDER BY team", True),
    ("SELECT team, COUNT(*) AS n FROM player "
     "GROUP BY team ORDER BY n DESC, team", True),
    ("SELECT COLLECT(name) AS names FROM player GROUP BY team", True),
    ("SELECT COLLECT(DISTINCT name) AS names, COUNT(*) AS n "
     "FROM player GROUP BY team", True),
    ("SELECT p.name, t.coast FROM player AS p, team AS t "
     "WHERE p.team = t.id", True),
    ("SELECT p.name FROM player AS p, team AS t "
     "WHERE p.team = t.id AND t.coast = 'west' ORDER BY p.name", True),
    ("SELECT a.name FROM player AS a, player AS b "
     "WHERE a.name = b.name AND a.team < b.team", True),
    ("SELECT name FROM player WHERE score IN (10, 5)", True),
    ("SELECT name FROM player WHERE team IN ('A', 'C') AND rank IN (4)",
     True),
    ("SELECT name FROM player WHERE score IN (10, NULL)", True),
    ("SELECT name FROM player WHERE NOT (score IN (10, NULL))", True),
    ("SELECT name FROM player WHERE NOT (score IN (10))", True),
    ("SELECT name FROM player WHERE score IN ()", True),
    ("SELECT name FROM player WHERE NOT (score IN ())", True),
    ("SELECT name FROM player WHERE score IN (10.0, 2.0)", True),
    ("SELECT name FROM player WHERE score IN ('10', '2')", True),
    ("SELECT name FROM player WHERE 'B' IN ('A', 'B')", True),
    ("SELECT p.name FROM player AS p, team AS t WHERE p.team = t.id "
     "AND t.coast IN ('west', 'east') AND p.score IN (10, 7)", True),
    # -- interpreter-fallback territory --------------------------------
    ("SELECT team FROM player GROUP BY team HAVING team != 'A'", False),
    ("SELECT * FROM player AS p, team AS t WHERE p.team = t.id", False),
    ("SELECT name FROM player LIMIT -1", False),
]


def native_side(sqlite_db, sql):
    """Whether the renderer accepts *sql* (None means fallback)."""
    kind, spec = parse_sql(sql)
    assert kind == "select"
    rendered = build_select(sqlite_db, spec)
    return rendered is not None


class TestSelectDifferential:
    @pytest.mark.parametrize(
        "sql,expect_native", SELECTS, ids=[s for s, _ in SELECTS]
    )
    def test_same_rows_same_order(self, pair, sql, expect_native):
        memory, sqlite = pair
        assert native_side(sqlite, sql) == expect_native
        assert run_sql(memory, sql) == run_sql(sqlite, sql)

    def test_error_parity_unknown_table(self, pair):
        errors = []
        for db in pair:
            with pytest.raises(DatabaseError) as info:
                run_sql(db, "SELECT * FROM nope")
            errors.append(type(info.value))
        assert errors[0] is errors[1]

    def test_error_parity_unknown_column(self, pair):
        errors = []
        for db in pair:
            with pytest.raises(DatabaseError) as info:
                run_sql(db, "SELECT zz FROM player")
            errors.append(type(info.value))
        assert errors[0] is errors[1]


DML = [
    "UPDATE player SET score = 0 WHERE team = 'B'",
    "UPDATE player SET rank = NULL WHERE score IS NULL",
    "UPDATE player SET team = 'Z'",
    "UPDATE player SET score = 1 WHERE team = 'missing'",
    "DELETE FROM player WHERE score IS NULL",
    "DELETE FROM player WHERE team = 'A' OR rank = 1",
    "DELETE FROM player",
    "DELETE FROM player WHERE rank IN (1, 4, NULL)",
    "UPDATE player SET score = 0 WHERE team IN ('A', 'C')",
]


class TestDmlDifferential:
    @pytest.mark.parametrize("sql", DML)
    def test_same_count_same_table(self, pair, sql):
        memory, sqlite = pair
        assert run_sql(memory, sql) == run_sql(sqlite, sql)
        assert (run_sql(memory, "SELECT * FROM player")
                == run_sql(sqlite, "SELECT * FROM player"))

    def test_insert_then_query(self, pair):
        memory, sqlite = pair
        stmt = ("INSERT INTO player (name, team, score, rank) "
                "VALUES ('Zoe', 'D', 1, NULL), ('Yan', 'D', 2, 9)")
        assert run_sql(memory, stmt) == run_sql(sqlite, stmt)
        probe = "SELECT name, rank FROM player WHERE team = 'D'"
        assert run_sql(memory, probe) == run_sql(sqlite, probe)


class TestPushdownInternals:
    def test_params_not_inlined(self, pair):
        """String literals travel as bound parameters, not SQL text."""
        _, sqlite = pair
        kind, spec = parse_sql(
            "SELECT name FROM player WHERE team = 'B''; DROP TABLE x'"
        )
        rendered = build_select(sqlite, spec)
        assert rendered is not None
        sql_text, params = rendered[0], rendered[1]
        assert "DROP TABLE" not in sql_text
        assert any("DROP TABLE" in str(p) for p in params)

    def test_in_lists_stay_within_the_parameter_cap(self, pair):
        memory, sqlite = pair
        values = ", ".join(str(n) for n in range(5, 2 * _MAX_PARAMS + 6))
        sql = f"SELECT name FROM player WHERE score IN ({values})"
        _, spec = parse_sql(sql)
        sql_text, params, _ = build_select(sqlite, spec)
        assert len(params) == 2 * _MAX_PARAMS + 1
        assert sql_text.count(" IN (") == 3
        assert sql_text.count(" OR ") == 2
        rows = run_sql(sqlite, sql)
        assert rows == run_sql(memory, sql)
        assert [r["name"] for r in rows] == ["Jack", "Janice", "Sue", "Sue"]

    def test_more_parameters_than_sqlite_binds_fall_back(self, pair):
        memory, sqlite = pair
        sql = "SELECT name FROM player WHERE score IN (10, 7, 5, 2)"
        assert native_side(sqlite, sql)
        sqlite.backend.max_params = 3
        assert not native_side(sqlite, sql)
        assert run_sql(sqlite, sql) == run_sql(memory, sql)

    def test_stats_count_native_statements(self, pair):
        _, sqlite = pair
        before = sqlite.backend.statements_pushed
        run_sql(sqlite, "SELECT name FROM player WHERE team = 'A'")
        assert sqlite.backend.statements_pushed == before + 1
