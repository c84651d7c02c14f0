"""The in-process storage backend: dict rows plus hash indexes.

This is the original :class:`~repro.rdb.table.Table` row store factored
behind the :class:`~repro.rdb.backend.StorageBackend` contract with
zero behaviour change: rows live in an insertion-ordered dict keyed by
monotone integer ids, and :class:`~repro.rdb.index.HashIndex` instances
are maintained inline on every mutation.
"""

from __future__ import annotations

from repro.rdb.backend import StorageBackend, TableStorage
from repro.rdb.index import HashIndex


class MemoryTableStorage(TableStorage):
    """Rows in a dict, indexes maintained eagerly."""

    def __init__(self, name):
        self.name = name
        self._rows = {}
        self._next_id = 1
        self._indexes = {}

    # -- batch mutation ------------------------------------------------------

    def insert_rows(self, rows):
        ids = []
        saved_next = self._next_id
        try:
            for full in rows:
                row_id = self._next_id
                self._next_id += 1
                self._rows[row_id] = full
                for column, index in self._indexes.items():
                    index.insert(row_id, full.get(column))
                ids.append(row_id)
        except BaseException:
            # All-or-nothing: undo the partial batch (only reachable via
            # injected faults — e.g. a failing index shim in tests).
            for row_id in reversed(ids):
                row = self._rows.pop(row_id)
                for column, index in self._indexes.items():
                    index.delete(row_id, row.get(column))
            self._next_id = saved_next
            raise
        return ids

    def delete_in(self, column, values):
        wanted = set(values)
        index = self._indexes.get(column)
        if index is not None:
            doomed = set()
            for value in wanted:
                doomed |= index.lookup(value)
            doomed = sorted(doomed)
        else:
            doomed = [
                row_id
                for row_id, row in self._rows.items()
                if row.get(column) in wanted
            ]
        for row_id in doomed:
            self.delete_row(row_id)
        return len(doomed)

    # -- row-at-a-time mutation ---------------------------------------------

    def replace(self, row_id, row):
        old = self._rows.get(row_id)
        for column, index in self._indexes.items():
            if old is None:
                index.insert(row_id, row.get(column))
            else:
                index.update(row_id, old.get(column), row.get(column))
        self._rows[row_id] = row

    def delete_row(self, row_id):
        row = self._rows.pop(row_id, None)
        if row is None:
            return None
        for column, index in self._indexes.items():
            index.delete(row_id, row.get(column))
        return row

    def delete_matching(self, predicate):
        doomed = [
            row_id for row_id, row in self._rows.items() if predicate(row)
        ]
        for row_id in doomed:
            self.delete_row(row_id)
        return len(doomed)

    def clear(self):
        for row_id in list(self._rows):
            self.delete_row(row_id)

    # -- reads --------------------------------------------------------------

    def get(self, row_id):
        return self._rows.get(row_id)

    def items(self):
        return list(self._rows.items())

    def lookup(self, column, value):
        index = self._indexes.get(column)
        if index is not None:
            return [dict(self._rows[rid]) for rid in sorted(
                index.lookup(value)
            )]
        return [
            dict(row)
            for row in self._rows.values()
            if row.get(column) == value
        ]

    def count(self):
        return len(self._rows)

    # -- indexes -------------------------------------------------------------

    def create_index(self, column):
        index = self._indexes.get(column)
        if index is not None:
            return index
        index = HashIndex(column)
        for row_id, row in self._rows.items():
            index.insert(row_id, row.get(column))
        self._indexes[column] = index
        return index

    def index_view(self, column):
        return self._indexes.get(column)

    def indexed_columns(self):
        return sorted(self._indexes)


class MemoryBackend(StorageBackend):
    """Factory for :class:`MemoryTableStorage`; holds no shared state
    beyond the set of live table names (dropping one just forgets it)."""

    name = "memory"
    supports_native_sql = False

    def __init__(self):
        self._tables = {}

    def create_table_storage(self, name, schema):
        storage = MemoryTableStorage(name)
        self._tables[name] = storage
        return storage

    def drop_table_storage(self, name):
        self._tables.pop(name, None)

    def close(self):
        self._tables.clear()
