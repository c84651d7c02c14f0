"""The out-of-core storage backend: rows in sqlite.

COND tables and working-memory relations live in a real SQL engine —
sqlite in ``:memory:`` or on a database file — so working memory is no
longer capped by one Python heap and the DIPS batch operations become
genuinely set-at-a-time SQL: ``insert_rows`` is one ``executemany``
INSERT inside an explicit transaction, ``delete_in`` is one
``DELETE ... WHERE col IN (...)``, and ``lookup`` is an indexed point
SELECT.  The SOI-retrieval SELECT itself pushes down natively via
:mod:`repro.rdb.pushdown`.

Layout: every table gets an explicit ``"__rid__" INTEGER PRIMARY KEY``
column carrying the substrate's row id.  Ids are assigned from a
per-table counter, so they are monotone and never reused — exactly the
memory backend's contract (sqlite's own rowid allocator would reuse the
max id after a delete).
Columns are declared without type affinity, so values keep their
storage class and comparisons behave like the mini interpreter's
type-strict ones.

The storable value domain is NULL, integers, floats, and strings —
the relational value domain of the paper.  Anything else (bools,
lists, objects that the in-memory dicts would happily hold in an
``any`` column) raises :class:`~repro.errors.StorageError` before any
write happens.

Durability of the *engine* is the WAL's job (see docs/DURABILITY.md),
so the connection runs with ``synchronous=OFF`` and a memory journal.
The tables hold derived match state: a checkpoint stores only the
working memory, and recovery rebuilds the tables from it.

A fault hook (:meth:`SqliteBackend.set_fault`) runs before every
statement so tests can inject sqlite-level failures mid-batch and
assert the all-or-nothing contract.
"""

from __future__ import annotations

import sqlite3
import threading

from repro.errors import StorageError
from repro.rdb.backend import StorageBackend, TableStorage

#: Stay well under SQLITE_MAX_VARIABLE_NUMBER for IN-list parameters.
_MAX_PARAMS = 500


def quote_ident(name):
    """Quote an identifier for sqlite (handles the paper's hyphenated
    COND table names and embedded quotes)."""
    return '"' + str(name).replace('"', '""') + '"'


def check_storable(value, context=""):
    """Reject values outside the relational domain (NULL/int/float/str)."""
    if value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    where = f" in {context}" if context else ""
    raise StorageError(
        f"sqlite backend cannot store {value!r}{where}: the storable "
        f"domain is NULL, numbers, and strings"
    )


class SqliteIndexView:
    """Index surface over a sqlite index: ``lookup(value) -> {row_id}``.

    Mirrors :class:`repro.rdb.index.HashIndex`'s read API; maintenance
    is the SQL engine's job.
    """

    __slots__ = ("_storage", "column")

    def __init__(self, storage, column):
        self._storage = storage
        self.column = column

    def lookup(self, value):
        sql = (
            f"SELECT __rid__ FROM {quote_ident(self._storage.name)} "
            f"WHERE {quote_ident(self.column)} IS ?"
        )
        rows = self._storage.backend.query(sql, (check_storable(value),))
        return {row[0] for row in rows}

    def count(self, value):
        sql = (
            f"SELECT COUNT(*) FROM {quote_ident(self._storage.name)} "
            f"WHERE {quote_ident(self.column)} IS ?"
        )
        return self._storage.backend.query(sql, (check_storable(value),))[0][0]

    def distinct_values(self):
        sql = (
            f"SELECT DISTINCT {quote_ident(self.column)} "
            f"FROM {quote_ident(self._storage.name)} "
            f"WHERE {quote_ident(self.column)} IS NOT NULL"
        )
        return [row[0] for row in self._storage.backend.query(sql)]

    def __len__(self):
        return self._storage.count()

    def __repr__(self):
        return f"SqliteIndexView({self._storage.name}.{self.column})"


class SqliteTableStorage(TableStorage):
    """One sqlite table behind the :class:`TableStorage` contract."""

    def __init__(self, backend, name, columns):
        self.backend = backend
        self.name = name
        self.columns = tuple(columns)
        self._views = {}
        self._next_id = 1

    # -- helpers -------------------------------------------------------------

    def _row_dict(self, values):
        return dict(zip(self.columns, values))

    def _column_list(self):
        return ", ".join(quote_ident(c) for c in self.columns)

    # -- batch mutation ------------------------------------------------------

    def insert_rows(self, rows):
        params = []
        ids = []
        next_id = self._next_id
        for full in rows:
            row_id = next_id
            next_id += 1
            ids.append(row_id)
            params.append(
                (row_id,)
                + tuple(
                    check_storable(full.get(c), f"table {self.name}")
                    for c in self.columns
                )
            )
        if not params:
            return ids
        placeholders = ", ".join("?" for _ in range(len(self.columns) + 1))
        sql = (
            f"INSERT INTO {quote_ident(self.name)} "
            f"(__rid__, {self._column_list()}) VALUES ({placeholders})"
        )
        with self.backend.transaction():
            self.backend.executemany(sql, params)
        self._next_id = next_id
        return ids

    def delete_in(self, column, values):
        checked = sorted(
            {check_storable(v) for v in values if v is not None},
            key=lambda v: (str(type(v)), v),
        )
        want_null = any(v is None for v in values)
        deleted = 0
        with self.backend.transaction():
            for start in range(0, len(checked), _MAX_PARAMS):
                chunk = checked[start:start + _MAX_PARAMS]
                marks = ", ".join("?" for _ in chunk)
                sql = (
                    f"DELETE FROM {quote_ident(self.name)} "
                    f"WHERE {quote_ident(column)} IN ({marks})"
                )
                deleted += self.backend.execute(sql, chunk).rowcount
            if want_null:
                sql = (
                    f"DELETE FROM {quote_ident(self.name)} "
                    f"WHERE {quote_ident(column)} IS NULL"
                )
                deleted += self.backend.execute(sql).rowcount
        return deleted

    # -- row-at-a-time mutation ---------------------------------------------

    def replace(self, row_id, row):
        assignments = ", ".join(
            f"{quote_ident(c)} = ?" for c in self.columns
        )
        params = [
            check_storable(row.get(c), f"table {self.name}")
            for c in self.columns
        ]
        params.append(row_id)
        cursor = self.backend.execute(
            f"UPDATE {quote_ident(self.name)} SET {assignments} "
            f"WHERE __rid__ = ?",
            params,
        )
        if cursor.rowcount == 0:
            self.backend.execute(
                f"INSERT INTO {quote_ident(self.name)} "
                f"(__rid__, {self._column_list()}) VALUES "
                f"({', '.join('?' for _ in range(len(self.columns) + 1))})",
                [row_id] + params[:-1],
            )

    def delete_row(self, row_id):
        row = self.get(row_id)
        if row is None:
            return None
        self.backend.execute(
            f"DELETE FROM {quote_ident(self.name)} WHERE __rid__ = ?",
            (row_id,),
        )
        return row

    def delete_matching(self, predicate):
        doomed = [
            row_id
            for row_id, row in self.items()
            if predicate(row)
        ]
        with self.backend.transaction():
            for start in range(0, len(doomed), _MAX_PARAMS):
                chunk = doomed[start:start + _MAX_PARAMS]
                marks = ", ".join("?" for _ in chunk)
                self.backend.execute(
                    f"DELETE FROM {quote_ident(self.name)} "
                    f"WHERE __rid__ IN ({marks})",
                    chunk,
                )
        return len(doomed)

    def clear(self):
        self.backend.execute(f"DELETE FROM {quote_ident(self.name)}")

    # -- reads --------------------------------------------------------------

    def get(self, row_id):
        rows = self.backend.query(
            f"SELECT {self._column_list()} FROM {quote_ident(self.name)} "
            f"WHERE __rid__ = ?",
            (row_id,),
        )
        if not rows:
            return None
        return self._row_dict(rows[0])

    def items(self):
        rows = self.backend.query(
            f"SELECT __rid__, {self._column_list()} "
            f"FROM {quote_ident(self.name)} ORDER BY __rid__"
        )
        return [(row[0], self._row_dict(row[1:])) for row in rows]

    def lookup(self, column, value):
        rows = self.backend.query(
            f"SELECT {self._column_list()} FROM {quote_ident(self.name)} "
            f"WHERE {quote_ident(column)} IS ? ORDER BY __rid__",
            (check_storable(value),),
        )
        return [self._row_dict(row) for row in rows]

    def count(self):
        return self.backend.query(
            f"SELECT COUNT(*) FROM {quote_ident(self.name)}"
        )[0][0]

    # -- indexes -------------------------------------------------------------

    def create_index(self, column):
        view = self._views.get(column)
        if view is not None:
            return view
        index_name = f"idx__{self.name}__{column}"
        self.backend.execute(
            f"CREATE INDEX IF NOT EXISTS {quote_ident(index_name)} "
            f"ON {quote_ident(self.name)} ({quote_ident(column)})"
        )
        view = SqliteIndexView(self, column)
        self._views[column] = view
        return view

    def index_view(self, column):
        return self._views.get(column)

    def indexed_columns(self):
        return sorted(self._views)


class SqliteBackend(StorageBackend):
    """Factory/owner of :class:`SqliteTableStorage` over one connection."""

    name = "sqlite"
    supports_native_sql = True

    def __init__(self, path=None):
        self.path = path
        self._lock = threading.RLock()
        self._fault = None
        #: SELECT/UPDATE/DELETE statements served natively (not by the
        #: interpreter fallback) — observability for tests and benchmarks.
        self.statements_pushed = 0
        self._conn = sqlite3.connect(
            path or ":memory:",
            check_same_thread=False,
            isolation_level=None,  # autocommit; we issue BEGIN explicitly
        )
        #: Most ``?`` parameters one statement may bind on this build.
        self.max_params = self._conn.getlimit(
            sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER
        )
        self._conn.execute("PRAGMA journal_mode=MEMORY")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA temp_store=MEMORY")

    @property
    def spec(self):
        return f"sqlite:{self.path}" if self.path else "sqlite"

    # -- statement execution (fault hook + lock) -----------------------------

    def set_fault(self, hook):
        """Install ``hook(sql)`` to run before every statement; a hook
        that raises aborts the statement (and rolls back any open
        transaction).  Pass None to clear."""
        self._fault = hook

    def execute(self, sql, params=()):
        with self._lock:
            if self._fault is not None:
                self._fault(sql)
            try:
                return self._conn.execute(sql, tuple(params))
            except sqlite3.Error as exc:
                raise StorageError(f"sqlite: {exc}") from exc

    def executemany(self, sql, params):
        with self._lock:
            if self._fault is not None:
                self._fault(sql)
            try:
                return self._conn.executemany(sql, params)
            except sqlite3.Error as exc:
                raise StorageError(f"sqlite: {exc}") from exc

    def query(self, sql, params=()):
        return self.execute(sql, params).fetchall()

    def transaction(self):
        """Context manager: BEGIN, then COMMIT or ROLLBACK on error.

        Nested uses inside an already-open transaction just join it
        (sqlite has one transaction per connection)."""
        return _SqliteTransaction(self)

    # -- table lifecycle -----------------------------------------------------

    def create_table_storage(self, name, schema):
        columns = tuple(schema.column_names())
        if "__rid__" in columns:
            raise StorageError("column name __rid__ is reserved")
        column_defs = ", ".join(quote_ident(c) for c in columns)
        with self._lock:
            # A fresh logical table must not see rows left by a same-named
            # table from an earlier run against the same database file.
            self.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")
            self.execute(
                f"CREATE TABLE {quote_ident(name)} "
                f'("__rid__" INTEGER PRIMARY KEY, {column_defs})'
            )
        return SqliteTableStorage(self, name, columns)

    def drop_table_storage(self, name):
        self.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")

    def close(self):
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    # -- native SQL pushdown -------------------------------------------------

    def execute_select(self, db, spec):
        from repro.rdb.pushdown import run_native_select

        result = run_native_select(self, db, spec)
        if result is not None:
            self.statements_pushed += 1
        return result

    def execute_update(self, db, spec):
        from repro.rdb.pushdown import run_native_update

        result = run_native_update(self, db, spec)
        if result is not None:
            self.statements_pushed += 1
        return result

    def execute_delete(self, db, spec):
        from repro.rdb.pushdown import run_native_delete

        result = run_native_delete(self, db, spec)
        if result is not None:
            self.statements_pushed += 1
        return result


class _SqliteTransaction:
    """BEGIN/COMMIT with ROLLBACK on error; joins an open transaction."""

    __slots__ = ("_backend", "_owns")

    def __init__(self, backend):
        self._backend = backend
        self._owns = False

    def __enter__(self):
        conn = self._backend._conn
        if not conn.in_transaction:
            self._backend.execute("BEGIN")
            self._owns = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._owns:
            return False
        conn = self._backend._conn
        if exc_type is None:
            try:
                self._backend.execute("COMMIT")
            except BaseException:
                if conn.in_transaction:
                    try:
                        conn.execute("ROLLBACK")
                    except sqlite3.Error:
                        pass
                raise
        elif conn.in_transaction:
            # Bypass the fault hook: rollback must always be attempted.
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
        return False
