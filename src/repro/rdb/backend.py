"""The pluggable storage backend contract for the relational substrate.

The paper's section 8 argument is that COND tables and working memory
are *relations* and should live wherever relations live — including on
disk, beyond one process heap.  This module defines the seam that makes
that a configuration choice instead of a rewrite:

* :class:`StorageBackend` — creates and drops per-table row stores and
  owns whatever shared resource they sit on (a dict registry, a sqlite
  connection);
* :class:`TableStorage` — the per-table contract
  :class:`repro.rdb.table.Table` delegates to: row CRUD, set-oriented
  batch operations (``insert_rows`` / ``delete_in``, the
  executemany-shaped calls one SQL statement corresponds to), index
  maintenance, and iteration in row-id order.

Two implementations ship: :class:`repro.rdb.memory_backend.MemoryBackend`
(the original dict-plus-:class:`~repro.rdb.index.HashIndex` store,
refactored behind this interface with identical semantics) and
:class:`repro.rdb.sqlite_backend.SqliteBackend` (rows in sqlite, batch
ops as real SQL statements, SELECTs pushed down natively).

Backend selection: :func:`resolve_backend` accepts a backend instance,
a spec string (``"memory"``, ``"sqlite"``, ``"sqlite:PATH"``), or
``None`` — which falls back to the ``REPRO_RDB_BACKEND`` environment
variable and finally to ``memory``.

Contract guarantees every backend must honour (the atomicity tests in
``tests/rdb/test_atomicity.py`` hold both to them):

* row ids are integers assigned monotonically from 1 and never reused;
* ``insert_rows`` is all-or-nothing: a failure mid-batch leaves the
  table (rows, indexes, and the id counter) byte-identical to its
  pre-batch state;
* ``items()`` / ``lookup()`` return rows in ascending row-id order
  (equal to insertion order, since ids are monotone);
* NULL is an indexable value: ``lookup(column, None)`` returns the
  rows where the column IS NULL.
"""

from __future__ import annotations

import os

from repro.errors import StorageError

#: Environment variable naming the default backend spec.
BACKEND_ENV = "REPRO_RDB_BACKEND"


class TableStorage:
    """Abstract per-table row store; see the module docstring contract.

    Rows handed to mutation methods are already schema-normalised full
    dicts (every column present, NULLs explicit) — validation is the
    :class:`~repro.rdb.table.Table`'s job, storage only stores.
    """

    name: str

    # -- batch mutation (set-oriented; one statement each) -----------------

    def insert_rows(self, rows):
        """Insert normalised *rows* all-or-nothing; returns their ids."""
        raise NotImplementedError

    def delete_in(self, column, values):
        """Delete rows whose *column* is any of *values*; returns count.

        The set-oriented counterpart of per-row delete — on a SQL
        backend this is one ``DELETE ... WHERE col IN (...)``.
        """
        raise NotImplementedError

    # -- row-at-a-time mutation --------------------------------------------

    def replace(self, row_id, row):
        """Overwrite the row stored under *row_id* with *row*."""
        raise NotImplementedError

    def delete_row(self, row_id):
        """Delete one row; returns the removed row dict or None."""
        raise NotImplementedError

    def delete_matching(self, predicate):
        """Delete rows where ``predicate(row)`` is true; returns count."""
        raise NotImplementedError

    def clear(self):
        """Delete every row (the id counter keeps advancing)."""
        raise NotImplementedError

    # -- reads --------------------------------------------------------------

    def get(self, row_id):
        """The row dict under *row_id*, or None."""
        raise NotImplementedError

    def items(self):
        """``(row_id, row)`` pairs in ascending row-id order."""
        raise NotImplementedError

    def lookup(self, column, value):
        """Row dicts whose *column* equals *value* (NULL-aware), in
        row-id order; served from an index when one exists."""
        raise NotImplementedError

    def count(self):
        raise NotImplementedError

    # -- indexes -------------------------------------------------------------

    def create_index(self, column):
        """Ensure an index on *column*; returns an index view exposing
        ``lookup(value) -> set[row_id]``, ``count(value)`` (the size of
        that set), ``distinct_values()``, and ``len()``."""
        raise NotImplementedError

    def index_view(self, column):
        """The index view for *column*, or None when not indexed."""
        raise NotImplementedError

    def indexed_columns(self):
        """Sorted list of indexed column names."""
        raise NotImplementedError


class StorageBackend:
    """Abstract factory/owner of :class:`TableStorage` instances."""

    #: Registry name ("memory" / "sqlite").
    name = "abstract"
    #: True when run_sql may push SELECT/DML down as native SQL.
    supports_native_sql = False

    @property
    def spec(self):
        """The spec string :func:`resolve_backend` would rebuild from."""
        return self.name

    def create_table_storage(self, name, schema):
        raise NotImplementedError

    def drop_table_storage(self, name):
        raise NotImplementedError

    def close(self):
        """Release backend resources (connections); idempotent."""


def backend_named(spec):
    """Instantiate a backend from a spec string.

    ``"memory"`` — the in-process dict store; ``"sqlite"`` — sqlite in
    ``:memory:``; ``"sqlite:PATH"`` — sqlite on a database file.
    """
    if spec == "memory":
        from repro.rdb.memory_backend import MemoryBackend

        return MemoryBackend()
    if spec == "sqlite" or spec.startswith("sqlite:"):
        from repro.rdb.sqlite_backend import SqliteBackend

        path = spec[len("sqlite:"):] or None if spec != "sqlite" else None
        return SqliteBackend(path)
    raise StorageError(
        f"unknown storage backend {spec!r} "
        f"(expected 'memory', 'sqlite', or 'sqlite:PATH')"
    )


def resolve_backend(backend=None):
    """Resolve *backend* to a :class:`StorageBackend` instance.

    Accepts an instance (returned as-is), a spec string, or ``None`` —
    which reads ``REPRO_RDB_BACKEND`` and defaults to ``memory``.
    """
    if isinstance(backend, StorageBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "memory"
    if not isinstance(backend, str):
        raise StorageError(
            f"backend must be a StorageBackend or spec string, "
            f"got {backend!r}"
        )
    return backend_named(backend)
