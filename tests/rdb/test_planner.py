"""Unit tests for the plan optimiser (hash joins, filter pushdown,
index scans)."""

import pytest

from repro.rdb import (
    ColumnRef,
    Comparison,
    Database,
    Filter,
    HashJoin,
    IndexScan,
    InList,
    Join,
    Literal,
    LogicalAnd,
    Scan,
    execute_plan,
    optimize,
    plan_counters,
    run_sql,
)


@pytest.fixture
def db():
    database = Database()
    emp = database.create_table("emp", ["name", "dept", "salary"])
    dept = database.create_table("dept", ["dept", "floor"])
    for name, d, salary in [
        ("ann", "eng", 120), ("bob", "eng", 100),
        ("cat", "ops", 90), ("dan", None, 50),
    ]:
        emp.insert({"name": name, "dept": d, "salary": salary})
    for d, floor in [("eng", 3), ("ops", 1), ("mgmt", 9)]:
        dept.insert({"dept": d, "floor": floor})
    return database


def col(name, qualifier):
    return ColumnRef(name, qualifier)


class TestRewrites:
    def test_equi_join_becomes_hash_join(self, db):
        plan = Join(
            Scan("emp"),
            Scan("dept"),
            Comparison("=", col("dept", "emp"), col("dept", "dept")),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, HashJoin)

    def test_swapped_sides_handled(self, db):
        plan = Join(
            Scan("emp"),
            Scan("dept"),
            Comparison("=", col("dept", "dept"), col("dept", "emp")),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, HashJoin)
        assert optimized.left_key.qualifier == "emp"

    def test_filter_pushdown_below_join(self, db):
        plan = Filter(
            Join(Scan("emp"), Scan("dept")),
            LogicalAnd(
                Comparison("=", col("dept", "emp"), col("dept", "dept")),
                Comparison(">", col("salary", "emp"), Literal(95)),
            ),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, HashJoin)
        # The salary conjunct moved below the join, onto the emp side.
        assert isinstance(optimized.left, Filter)

    def test_non_equi_join_stays_nested_loop(self, db):
        plan = Join(
            Scan("emp"),
            Scan("dept"),
            Comparison(">", col("salary", "emp"), col("floor", "dept")),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, Join)


class TestEquivalence:
    CASES = [
        Join(
            Scan("emp"),
            Scan("dept"),
            Comparison("=", col("dept", "emp"), col("dept", "dept")),
        ),
        Filter(
            Join(Scan("emp"), Scan("dept")),
            LogicalAnd(
                Comparison("=", col("dept", "emp"), col("dept", "dept")),
                Comparison(">=", col("floor", "dept"), Literal(2)),
            ),
        ),
        Join(Scan("emp"), Scan("dept")),  # cross join, no condition
    ]

    @pytest.mark.parametrize("plan", CASES)
    def test_optimized_plan_same_rows(self, db, plan):
        def canon(rows):
            return sorted(
                tuple(sorted((k, repr(v)) for k, v in row.items()))
                for row in rows
            )

        assert canon(execute_plan(plan, db)) == canon(
            execute_plan(optimize(plan), db)
        )

    def test_null_keys_never_join(self, db):
        plan = optimize(
            Join(
                Scan("emp"),
                Scan("dept"),
                Comparison("=", col("dept", "emp"), col("dept", "dept")),
            )
        )
        rows = execute_plan(plan, db)
        assert all(row["emp.name"] != "dan" for row in rows)

    def test_sql_results_identical_with_and_without(self, db):
        sql = (
            "SELECT e.name, d.floor FROM emp e, dept d "
            "WHERE e.dept = d.dept AND e.salary > 95"
        )
        with_opt = run_sql(db, sql, optimize=True)
        without = run_sql(db, sql, optimize=False)
        key = lambda r: sorted(r.items())
        assert sorted(with_opt, key=key) == sorted(without, key=key)
        assert len(with_opt) == 2

    def test_three_way_dips_shaped_query(self, db):
        run_sql(db, "CREATE TABLE grade (dept str, level int)")
        run_sql(
            db,
            "INSERT INTO grade (dept, level) VALUES ('eng', 2), ('ops', 1)",
        )
        sql = (
            "SELECT e.name FROM emp e, dept d, grade g "
            "WHERE e.dept = d.dept AND d.dept = g.dept AND g.level = 2"
        )
        rows = run_sql(db, sql)
        assert {r["e.name"] for r in rows} == {"ann", "bob"}
        assert rows == run_sql(db, sql, optimize=False)


class TestIndexScan:
    """``col = literal`` / ``col IN (...)`` on an indexed column reads
    through the index; every result must equal the plain scan's, rows
    and order."""

    @pytest.fixture(params=["memory", "sqlite"])
    def tags(self, request):
        database = Database(request.param)
        table = database.create_table("t", ["rule", "tag", "v"])
        table.create_index("rule")
        table.create_index("tag")
        table.insert_many(
            {"rule": f"r{i % 2}", "tag": None if i % 7 == 0 else i,
             "v": 2.0 if i == 3 else i}
            for i in range(40)
        )
        yield database
        database.close()

    def plan(self, predicate, db):
        return optimize(Filter(Scan("t"), predicate), db)

    def test_in_on_indexed_column_becomes_index_scan(self, tags):
        predicate = InList(col("tag", "t"), [5, 9, 11])
        plan = self.plan(predicate, tags)
        assert isinstance(plan, Filter) and plan.predicate is predicate
        assert isinstance(plan.child, IndexScan)
        assert (plan.child.column, plan.child.values) == ("tag", [5, 9, 11])

    def test_the_index_promising_fewest_rows_wins(self, tags):
        by_rule = Comparison("=", col("rule", "t"), Literal("r1"))
        by_tag = InList(col("tag", "t"), [5, 9, 11])
        for predicate in (LogicalAnd(by_rule, by_tag),
                          LogicalAnd(by_tag, by_rule)):
            assert self.plan(predicate, tags).child.column == "tag"
        # 20 rows of r1 against 30-odd tagged rows listed one by one.
        many = InList(col("tag", "t"), list(range(40)))
        assert self.plan(
            LogicalAnd(by_rule, many), tags
        ).child.column == "rule"

    def test_unindexed_column_or_no_database_keeps_the_scan(self, tags):
        by_v = Comparison("=", col("v", "t"), Literal(3))
        assert isinstance(self.plan(by_v, tags).child, Scan)
        by_tag = InList(col("tag", "t"), [5])
        assert isinstance(self.plan(by_tag, None).child, Scan)
        other = Comparison("=", col("tag", "u"), Literal(5))
        assert isinstance(self.plan(other, tags).child, Scan)

    @pytest.mark.parametrize("where", [
        "tag IN (11, 5, 9)",
        "t.tag IN (5, 5, 5.0)",
        "tag IN (3, NULL)",
        "NOT (tag IN (3, NULL))",
        "tag IN ()",
        "tag = 9",
        "9 = tag",
        "tag = NULL",
        "rule = 'r1' AND tag IN (1, 2, 3, 4)",
        "rule IN ('r0', 'r1') AND v = 2",
        "rule = 'r1' OR tag = 2",
        pytest.param(
            "tag IN (" + ", ".join(str(n) for n in range(-600, 600)) + ")",
            id="tag IN (1200 values)",
        ),
    ])
    def test_same_rows_same_order_as_the_scan(self, tags, where):
        sql = f"SELECT tag, v FROM t WHERE {where}"
        assert run_sql(tags, sql) == run_sql(tags, sql, optimize=False)

    def test_index_scan_below_a_join_keeps_nested_loop_order(self, tags):
        sql = (
            "SELECT a.tag, b.tag FROM t a, t b "
            "WHERE a.v = b.v AND a.tag IN (30, 3, 12) AND b.rule = 'r0'"
        )
        assert run_sql(tags, sql) == run_sql(tags, sql, optimize=False)

    def test_rows_scanned_counts_the_rows_fetched(self):
        database = Database("memory")
        table = database.create_table("t", ["tag"])
        table.create_index("tag")
        table.insert_many({"tag": i % 100} for i in range(1000))
        with plan_counters() as work:
            rows = run_sql(database, "SELECT tag FROM t WHERE tag IN (1, 2)")
        assert len(rows) == 20 and work.rows_scanned == 20
        with plan_counters() as work:
            run_sql(database, "SELECT tag FROM t WHERE tag IN (1, 2)",
                    optimize=False)
        assert work.rows_scanned == 1000
