"""Hash indexes over table columns.

An index maps a column value to the set of row ids holding it; tables
keep their indexes synchronised on every insert/update/delete.  NULLs
are indexed under a private sentinel so ``IS NULL`` scans can also be
served from an index.
"""

from __future__ import annotations


class _NullKey:
    """Private sentinel distinguishing NULL from any user value."""

    __repr__ = lambda self: "<NULL>"


NULL_KEY = _NullKey()


def _key(value):
    return NULL_KEY if value is None else value


class HashIndex:
    """value -> {row_id} for one column."""

    __slots__ = ("column", "_buckets")

    def __init__(self, column):
        self.column = column
        self._buckets = {}

    def insert(self, row_id, value):
        self._buckets.setdefault(_key(value), set()).add(row_id)

    def delete(self, row_id, value):
        bucket = self._buckets.get(_key(value))
        if bucket is None:
            return
        bucket.discard(row_id)
        if not bucket:
            del self._buckets[_key(value)]

    def update(self, row_id, old_value, new_value):
        if _key(old_value) == _key(new_value):
            return
        self.delete(row_id, old_value)
        self.insert(row_id, new_value)

    def lookup(self, value):
        """Row ids whose column equals *value* (or is NULL for None)."""
        return set(self._buckets.get(_key(value), ()))

    def count(self, value):
        """How many rows :meth:`lookup` would return for *value*."""
        return len(self._buckets.get(_key(value), ()))

    def distinct_values(self):
        return [key for key in self._buckets if key is not NULL_KEY]

    def __len__(self):
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self):
        return f"HashIndex({self.column}, {len(self._buckets)} keys)"
