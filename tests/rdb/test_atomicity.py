"""Regression tests: atomic batches and all-or-nothing transactions.

Both bugs here shipped in earlier revisions and are pinned by these
tests:

* ``Table.insert_many`` used to insert row-by-row, so a schema
  violation mid-batch left every earlier row behind — the batch was
  observable half-applied.  It now normalises every row before any
  mutation and delegates to the storage layer's all-or-nothing
  ``insert_rows``.
* ``TransactionManager.validate_and_apply`` used to apply buffered
  operations directly to the tables, so a failure on the Nth operation
  (missing row, schema violation) left operations 1..N-1 committed and
  the transaction counted as neither committed nor aborted.  It now
  stages every effect against a scratch view first and only touches
  the tables once the whole batch is known to apply.

The sqlite backend is additionally held to statement-level atomicity
through fault injection: an injected sqlite error mid-batch must roll
the transaction back, leaving rows, ids, and indexes byte-identical.
"""

import pytest

from repro.errors import (
    SchemaError,
    StorageError,
    TransactionError,
)
from repro.rdb import Database, TransactionManager
from repro.rdb.memory_backend import MemoryBackend
from repro.rdb.sqlite_backend import SqliteBackend

BACKENDS = {
    "memory": MemoryBackend,
    "sqlite": SqliteBackend,
}


@pytest.fixture(params=sorted(BACKENDS))
def db(request):
    database = Database(BACKENDS[request.param]())
    yield database
    database.close()


def table_state(table):
    """Full observable state: (row_id, row) pairs in order."""
    return [(rid, dict(row)) for rid, row in table.storage.items()]


class TestInsertManyAtomicity:
    def test_schema_failure_mid_batch_inserts_nothing(self, db):
        table = db.create_table("t", ["a", "b"])
        table.insert_many([{"a": 1}, {"a": 2}])
        before = table_state(table)
        with pytest.raises(SchemaError):
            table.insert_many([{"a": 3}, {"zz": 4}, {"a": 5}])
        assert table_state(table) == before
        assert len(table) == 2

    def test_type_failure_mid_batch_inserts_nothing(self, db):
        from repro.rdb import Column, Schema

        schema = Schema([Column("a", "int")])
        table = db.create_table("t", schema)
        before = table_state(table)
        with pytest.raises(SchemaError):
            table.insert_many([{"a": 1}, {"a": "not-an-int"}])
        assert table_state(table) == before

    def test_failed_batch_does_not_consume_row_ids(self, db):
        table = db.create_table("t", ["a"])
        first = table.insert({"a": 1})
        with pytest.raises(SchemaError):
            table.insert_many([{"a": 2}, {"bad": 3}])
        assert table.insert({"a": 4}) == first + 1

    def test_failed_batch_leaves_indexes_intact(self, db):
        table = db.create_table("t", ["a"])
        table.create_index("a")
        table.insert_many([{"a": 1}, {"a": 2}])
        with pytest.raises(SchemaError):
            table.insert_many([{"a": 1}, {"oops": 9}])
        assert [row["a"] for row in table.lookup("a", 1)] == [1]
        assert len(table) == 2

    def test_successful_batch_is_visible_and_ordered(self, db):
        table = db.create_table("t", ["a"])
        ids = table.insert_many({"a": i} for i in range(5))
        assert ids == sorted(ids)
        assert [row["a"] for row in table.scan()] == list(range(5))

    def test_sql_insert_batch_is_atomic(self, db):
        """Multi-row INSERT through run_sql inherits the guarantee."""
        from repro.rdb.sql import run_sql

        table = db.create_table("t", ["a"])
        with pytest.raises(SchemaError):
            run_sql(db, "INSERT INTO t (a, zz) VALUES (1, 2), (3, 4)")
        assert len(table) == 0


class TestSqliteFaultInjection:
    """Statement-level faults must leave pre-batch state untouched."""

    @pytest.fixture
    def sqlite_db(self):
        backend = SqliteBackend()
        database = Database(backend)
        yield database, backend
        database.close()

    def test_fault_during_insert_batch_rolls_back(self, sqlite_db):
        db, backend = sqlite_db
        table = db.create_table("t", ["a"])
        table.insert_many([{"a": 1}, {"a": 2}])
        before = table_state(table)

        def fail_inserts(sql):
            if sql.lstrip().upper().startswith("INSERT INTO \"T\""):
                raise StorageError("injected device failure")

        backend.set_fault(fail_inserts)
        with pytest.raises(StorageError):
            table.insert_many([{"a": 3}, {"a": 4}])
        backend.set_fault(None)
        assert table_state(table) == before
        # The id counter did not advance either.
        assert table.insert({"a": 9}) == 3

    def test_insert_batch_writes_only_the_rows(self, sqlite_db):
        # Row ids are counted in memory, as on the memory backend: a
        # batch is one INSERT in its transaction, with no bookkeeping
        # statement beside it.
        db, backend = sqlite_db
        table = db.create_table("t", ["a"])
        statements = []
        backend.set_fault(statements.append)
        assert table.insert_many([{"a": 1}, {"a": 2}]) == [1, 2]
        backend.set_fault(None)
        assert [sql.split()[0].upper() for sql in statements] == [
            "BEGIN", "INSERT", "COMMIT"]

    def test_fault_during_delete_in_rolls_back(self, sqlite_db):
        db, backend = sqlite_db
        table = db.create_table("t", ["a"])
        table.insert_many([{"a": i} for i in range(6)])
        before = table_state(table)
        calls = []

        def fail_second_delete(sql):
            if sql.lstrip().upper().startswith("DELETE"):
                calls.append(sql)
                if len(calls) >= 2:
                    raise StorageError("injected failure")

        backend.set_fault(fail_second_delete)
        with pytest.raises(StorageError):
            # Mixed NULL + values forces two DELETE statements in one
            # transaction; the second one faults.
            table.delete_in("a", [0, 1, None])
        backend.set_fault(None)
        assert table_state(table) == before

    def test_rejects_unstorable_values_before_writing(self, sqlite_db):
        db, backend = sqlite_db
        table = db.create_table("t", ["a"])
        before = table_state(table)
        with pytest.raises(StorageError):
            table.insert_many([{"a": 1}, {"a": [1, 2]}])
        with pytest.raises(StorageError):
            table.insert({"a": True})
        assert table_state(table) == before


class TestTransactionApplyAtomicity:
    @pytest.fixture
    def setup(self, db):
        table = db.create_table("t", ["v"])
        ids = [table.insert({"v": value}) for value in range(3)]
        return table, ids, TransactionManager()

    def test_missing_row_aborts_whole_transaction(self, setup):
        table, ids, manager = setup
        txn = manager.begin()
        txn.update(table, ids[0], {"v": 99})
        txn.update(table, 999, {"v": 1})  # no such row
        with pytest.raises(TransactionError):
            txn.commit()
        # The first update must NOT have leaked through.
        assert table.get(ids[0])["v"] == 0
        assert manager.stats() == {"commits": 0, "aborts": 1}

    def test_delete_of_missing_row_aborts_wholesale(self, setup):
        table, ids, manager = setup
        txn = manager.begin()
        txn.insert(table, {"v": 42})
        txn.delete(table, 999)
        with pytest.raises(TransactionError):
            txn.commit()
        assert len(table) == 3
        assert manager.stats()["aborts"] == 1

    def test_schema_violation_aborts_wholesale(self, setup):
        table, ids, manager = setup
        txn = manager.begin()
        txn.update(table, ids[0], {"v": 99})
        txn.insert(table, {"nonexistent": 1})
        with pytest.raises(SchemaError):
            txn.commit()
        assert table.get(ids[0])["v"] == 0
        assert len(table) == 3
        assert manager.stats()["aborts"] == 1

    def test_aborted_apply_cannot_be_retried(self, setup):
        table, ids, manager = setup
        txn = manager.begin()
        txn.update(table, 999, {"v": 1})
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()  # txn is aborted, not retriable

    def test_aborted_apply_does_not_poison_later_txns(self, setup):
        table, ids, manager = setup
        bad = manager.begin()
        bad.update(table, 999, {"v": 1})
        with pytest.raises(TransactionError):
            bad.commit()
        good = manager.begin()
        good.update(table, ids[1], {"v": 7})
        good.commit()
        assert table.get(ids[1])["v"] == 7
        assert manager.stats() == {"commits": 1, "aborts": 1}

    def test_staged_apply_sees_own_inserts_deletes(self, setup):
        table, ids, manager = setup
        txn = manager.begin()
        txn.delete(table, ids[2])
        txn.update(table, ids[0], {"v": 5})
        txn.commit()
        assert table.get(ids[2]) is None
        assert table.get(ids[0])["v"] == 5

    def test_update_after_delete_in_same_txn_aborts(self, setup):
        table, ids, manager = setup
        txn = manager.begin()
        txn.delete(table, ids[0])
        txn.update(table, ids[0], {"v": 5})
        with pytest.raises(TransactionError):
            txn.commit()
        assert table.get(ids[0])["v"] == 0  # delete rolled back too
        assert manager.stats()["aborts"] == 1
