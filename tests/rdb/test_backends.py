"""The StorageBackend contract, held against both implementations.

Every guarantee in :mod:`repro.rdb.backend`'s module docstring is
pinned here for the memory and sqlite backends alike, so a third
backend can be dropped in and qualified by running this file.
"""

import sqlite3

import pytest

from repro.errors import StorageError
from repro.rdb import Database, Schema
from repro.rdb.backend import (
    BACKEND_ENV,
    backend_named,
    resolve_backend,
)
from repro.rdb.memory_backend import MemoryBackend
from repro.rdb.sqlite_backend import SqliteBackend

BACKENDS = {
    "memory": MemoryBackend,
    "sqlite": SqliteBackend,
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    instance = BACKENDS[request.param]()
    yield instance
    instance.close()


@pytest.fixture
def storage(backend):
    return backend.create_table_storage("t", Schema(["a", "b"]))


class TestRowIds:
    def test_ids_are_monotone_from_one(self, storage):
        ids = storage.insert_rows([{"a": i, "b": None} for i in range(4)])
        assert ids == [1, 2, 3, 4]

    def test_ids_never_reused_after_delete(self, storage):
        storage.insert_rows([{"a": 1, "b": None}])
        storage.delete_row(1)
        assert storage.insert_rows([{"a": 2, "b": None}]) == [2]

    def test_ids_never_reused_after_clear(self, storage):
        storage.insert_rows([{"a": i, "b": None} for i in range(3)])
        storage.clear()
        assert storage.count() == 0
        assert storage.insert_rows([{"a": 9, "b": None}]) == [4]


class TestReads:
    def test_items_in_row_id_order(self, storage):
        storage.insert_rows([{"a": i, "b": None} for i in range(5)])
        storage.delete_row(2)
        assert [rid for rid, _ in storage.items()] == [1, 3, 4, 5]
        assert [row["a"] for _, row in storage.items()] == [0, 2, 3, 4]

    def test_lookup_in_row_id_order(self, storage):
        storage.insert_rows(
            [{"a": i % 2, "b": i} for i in range(6)]
        )
        assert [row["b"] for row in storage.lookup("a", 0)] == [0, 2, 4]

    def test_lookup_null(self, storage):
        storage.insert_rows(
            [{"a": None, "b": 1}, {"a": 5, "b": 2}, {"a": None, "b": 3}]
        )
        assert [row["b"] for row in storage.lookup("a", None)] == [1, 3]

    def test_get_missing_is_none(self, storage):
        assert storage.get(42) is None


class TestIndexes:
    def test_index_view_lookup(self, storage):
        storage.create_index("a")
        storage.insert_rows([{"a": i % 2, "b": i} for i in range(4)])
        view = storage.index_view("a")
        assert view.lookup(1) == {2, 4}
        assert sorted(view.distinct_values()) == [0, 1]
        assert len(view) == 4

    def test_index_null_values(self, storage):
        storage.create_index("a")
        storage.insert_rows([{"a": None, "b": 1}, {"a": 2, "b": 2}])
        assert storage.index_view("a").lookup(None) == {1}

    def test_index_follows_mutation(self, storage):
        storage.create_index("a")
        ids = storage.insert_rows([{"a": 1, "b": 1}, {"a": 1, "b": 2}])
        storage.delete_row(ids[0])
        storage.replace(ids[1], {"a": 3, "b": 2})
        view = storage.index_view("a")
        assert view.lookup(1) == set()
        assert view.lookup(3) == {ids[1]}

    def test_indexed_columns(self, storage):
        assert storage.indexed_columns() == []
        storage.create_index("b")
        storage.create_index("a")
        assert storage.indexed_columns() == ["a", "b"]


class TestBatchDelete:
    def test_delete_in_values(self, storage):
        storage.insert_rows([{"a": i, "b": None} for i in range(6)])
        assert storage.delete_in("a", [1, 3, 99]) == 2
        assert [row["a"] for _, row in storage.items()] == [0, 2, 4, 5]

    def test_delete_in_with_null(self, storage):
        storage.insert_rows(
            [{"a": None, "b": 1}, {"a": 2, "b": 2}, {"a": 3, "b": 3}]
        )
        assert storage.delete_in("a", [None, 3]) == 2
        assert [row["b"] for _, row in storage.items()] == [2]

    def test_delete_in_empty_values(self, storage):
        storage.insert_rows([{"a": 1, "b": None}])
        assert storage.delete_in("a", []) == 0
        assert storage.count() == 1

    def test_delete_in_many_values_chunks(self, storage):
        """More values than one statement's parameter budget."""
        storage.insert_rows([{"a": i, "b": None} for i in range(50)])
        assert storage.delete_in("a", list(range(2000))) == 50
        assert storage.count() == 0


class TestBackendRegistry:
    def test_backend_named_specs(self):
        assert isinstance(backend_named("memory"), MemoryBackend)
        sqlite = backend_named("sqlite")
        assert isinstance(sqlite, SqliteBackend)
        assert sqlite.spec == "sqlite"
        sqlite.close()

    def test_backend_named_sqlite_path(self, tmp_path):
        path = str(tmp_path / "db.sqlite3")
        backend = backend_named(f"sqlite:{path}")
        assert backend.spec == f"sqlite:{path}"
        backend.create_table_storage("t", Schema(["a"]))
        backend.close()
        assert (tmp_path / "db.sqlite3").exists()

    def test_backend_named_unknown(self):
        with pytest.raises(StorageError):
            backend_named("oracle")

    def test_resolve_passthrough_and_env(self, monkeypatch):
        instance = MemoryBackend()
        assert resolve_backend(instance) is instance
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None), MemoryBackend)
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        resolved = resolve_backend(None)
        assert isinstance(resolved, SqliteBackend)
        resolved.close()

    def test_resolve_rejects_junk(self):
        with pytest.raises(StorageError):
            resolve_backend(42)

    def test_database_accepts_spec_string(self):
        db = Database("sqlite")
        assert isinstance(db.backend, SqliteBackend)
        db.close()


class TestSqliteFile:
    def test_file_backed_database_persists(self, tmp_path):
        path = str(tmp_path / "out.db")
        db = Database(f"sqlite:{path}")
        db.create_table("t", ["a"]).insert_many([{"a": 1}, {"a": 2}])
        db.close()
        reopened = Database(f"sqlite:{path}")
        # A fresh create_table drops stale homonyms: a reopened file
        # never adopts an earlier run's table.
        table = reopened.create_table("t", ["a"])
        assert len(table) == 0
        reopened.close()


    def test_file_holds_only_the_tables_made(self, tmp_path):
        path = str(tmp_path / "out.db")
        db = Database(f"sqlite:{path}")
        db.create_table("t", ["a"]).insert_many([{"a": 1}])
        db.close()
        with sqlite3.connect(path) as conn:
            names = [row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")]
        conn.close()
        assert names == ["t"]


class TestDropTable:
    def test_drop_and_recreate(self, backend):
        db = Database(backend)
        table = db.create_table("t", ["a"])
        table.insert({"a": 1})
        db.drop_table("t")
        fresh = db.create_table("t", ["a"])
        assert len(fresh) == 0
        assert fresh.insert({"a": 2}) == 1
