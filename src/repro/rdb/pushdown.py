"""Render mini-SQL statement specs to native sqlite SQL.

When the database's storage backend is sqlite, :func:`repro.rdb.sql.run_sql`
offers each parsed SELECT/UPDATE/DELETE spec to this module before
falling back to the interpreter.  The point is §8's: SOI retrieval is
*one* SQL statement with a single GROUP BY, so on an out-of-core
backend it should run inside the SQL engine instead of pulling every
row into Python.

The renderer is conservative: it must reproduce the mini interpreter's
semantics exactly (see docs/STORAGE.md for the parity table), and any
construct where the two could diverge raises the private ``_Fallback``
signal so the caller returns ``None`` and the interpreter runs instead.
Notable translations:

* ``collect(x)`` becomes ``json_group_array(x) FILTER (WHERE x IS NOT
  NULL)`` (the interpreter's collect skips NULLs; sqlite's would not),
  decoded back to a Python list;
* an aggregate query with no GROUP BY gains ``HAVING COUNT(*) > 0``:
  the interpreter returns no rows for an empty input where SQL returns
  one all-NULL row;
* the interpreter groups by *every* non-aggregate select item (plus
  listed GROUP BY keys), so the native GROUP BY clause lists them all;
* ungrouped, non-DISTINCT queries get the tables' ``__rid__`` columns
  as trailing ORDER BY terms, reproducing the interpreter's insertion
  order / stable sort exactly;
* ``IN (literals)`` renders as ``IN`` lists of at most ``_MAX_PARAMS``
  bound parameters each, OR-ed together; a SELECT binding more
  parameters than this sqlite build allows falls back;
* ``HAVING``, multi-table ``*``, negative LIMIT, DISTINCT with
  non-alias ORDER BY keys, and aggregates inside WHERE all fall back.
"""

from __future__ import annotations

import json

from repro.rdb import query as q
from repro.rdb.sqlite_backend import _MAX_PARAMS, quote_ident

_OPS = {"=": "=", "!=": "<>", "<>": "<>", "<": "<", "<=": "<=",
        ">": ">", ">=": ">="}


class _Fallback(Exception):
    """Raised when a spec cannot be rendered with identical semantics."""


class _SelectRenderer:
    def __init__(self, db, spec):
        self.db = db
        self.spec = spec
        self.params = []
        self.aliases = {}  # alias -> schema, in FROM order

    # -- resolution ----------------------------------------------------------

    def _resolve(self, ref):
        """Map a ColumnRef to its alias; fall back when ambiguous."""
        if ref.qualifier is not None:
            schema = self.aliases.get(ref.qualifier)
            if schema is None or not schema.has_column(ref.name):
                raise _Fallback
            return ref.qualifier
        owners = [
            alias
            for alias, schema in self.aliases.items()
            if schema.has_column(ref.name)
        ]
        if len(owners) != 1:
            raise _Fallback
        return owners[0]

    def _render_ref(self, ref):
        alias = self._resolve(ref)
        return f"{quote_ident(alias)}.{quote_ident(ref.name)}"

    # -- expressions ---------------------------------------------------------

    def _render_value(self, expr, allow_aggregate=False):
        if isinstance(expr, q.Literal):
            self.params.append(expr.value)
            return "?"
        if isinstance(expr, q.ColumnRef):
            return self._render_ref(expr)
        if isinstance(expr, q.Aggregate) and allow_aggregate:
            return self._render_aggregate(expr)
        raise _Fallback

    def _render_aggregate(self, agg):
        if agg.operand is None:
            return "COUNT(*)"
        operand = self._render_ref(agg.operand)
        inner = f"DISTINCT {operand}" if agg.distinct else operand
        if agg.func == "collect":
            return (
                f"json_group_array({inner}) "
                f"FILTER (WHERE {operand} IS NOT NULL)"
            )
        return f"{agg.func.upper()}({inner})"

    def _render_condition(self, cond):
        if isinstance(cond, q.Comparison):
            left = self._render_value(cond.left)
            right = self._render_value(cond.right)
            return f"({left} {_OPS[cond.op]} {right})"
        if isinstance(cond, q.IsNull):
            operand = self._render_value(cond.operand)
            negated = " NOT" if cond.negated else ""
            return f"({operand} IS{negated} NULL)"
        if isinstance(cond, q.InList):
            return self._render_in(cond)
        if isinstance(cond, q.LogicalAnd):
            return (
                f"({self._render_condition(cond.left)} AND "
                f"{self._render_condition(cond.right)})"
            )
        if isinstance(cond, q.LogicalOr):
            return (
                f"({self._render_condition(cond.left)} OR "
                f"{self._render_condition(cond.right)})"
            )
        if isinstance(cond, q.LogicalNot):
            return f"(NOT {self._render_condition(cond.operand)})"
        raise _Fallback

    def _render_in(self, cond):
        """``IN`` lists of at most ``_MAX_PARAMS`` parameters, OR-ed:
        the same three-valued result as one list of them all."""
        lists = []
        for start in range(0, max(len(cond.values), 1), _MAX_PARAMS):
            chunk = cond.values[start:start + _MAX_PARAMS]
            operand = self._render_value(cond.operand)
            self.params.extend(chunk)
            lists.append(f"{operand} IN ({', '.join('?' * len(chunk))})")
        return f"({' OR '.join(lists)})"

    # -- the statement -------------------------------------------------------

    def build(self):
        spec = self.spec
        if spec["having"] is not None:
            raise _Fallback
        for table_name, alias in spec["tables"]:
            if not self.db.has_table(table_name) or alias in self.aliases:
                raise _Fallback
            self.aliases[alias] = self.db.table(table_name).schema

        items = spec["items"]
        if items == "*":
            if len(spec["tables"]) != 1:
                raise _Fallback
            alias = next(iter(self.aliases))
            items = [
                (q.ColumnRef(name, qualifier=alias), name)
                for name in self.aliases[alias].column_names()
            ]

        aggregates = [
            (expr, name)
            for expr, name in items
            if isinstance(expr, q.Aggregate)
        ]
        grouped = bool(spec["group_keys"]) or bool(aggregates)

        select_parts = []
        collect_names = []
        group_exprs = []
        extra_having = None

        if grouped and spec["group_keys"]:
            keys = [
                (expr, name)
                for expr, name in items
                if not isinstance(expr, q.Aggregate)
            ]
            if any(not isinstance(expr, q.ColumnRef) for expr, _ in keys):
                raise _Fallback
            # The interpreter also partitions by GROUP BY keys absent
            # from the select list — and emits them as output columns.
            selected = {name for _, name in keys}
            for ref in spec["group_keys"]:
                if ref.display not in selected and not any(
                    k.display == ref.display for k, _ in keys
                ):
                    keys.append((ref, ref.display))
            final_items = keys + aggregates
            group_exprs = [self._render_ref(ref) for ref, _ in keys]
        elif grouped:
            # Aggregates with no GROUP BY: one group of everything —
            # but only when the input is non-empty (interpreter returns
            # no rows for an empty input, SQL would return one).
            if len(aggregates) != len(items):
                raise _Fallback  # interpreter raises SqlError; let it
            final_items = list(items)
            extra_having = "HAVING COUNT(*) > 0"
        else:
            final_items = list(items)

        for expr, name in final_items:
            rendered = self._render_value(expr, allow_aggregate=True)
            select_parts.append(f"{rendered} AS {quote_ident(name)}")
            if isinstance(expr, q.Aggregate) and expr.func == "collect":
                collect_names.append(name)

        where_sql = ""
        if spec["where"] is not None:
            where_sql = f" WHERE {self._render_condition(spec['where'])}"

        output_names = {name for _, name in final_items}
        order_terms = self._order_terms(grouped, output_names)

        from_sql = ", ".join(
            f"{quote_ident(name)} AS {quote_ident(alias)}"
            for name, alias in spec["tables"]
        )
        sql = "SELECT "
        if spec["distinct"]:
            sql += "DISTINCT "
        sql += ", ".join(select_parts) + f" FROM {from_sql}{where_sql}"
        if group_exprs:
            sql += " GROUP BY " + ", ".join(group_exprs)
        if extra_having:
            sql += f" {extra_having}"
        if order_terms:
            sql += " ORDER BY " + ", ".join(order_terms)
        if spec["limit"] is not None:
            if spec["limit"] < 0:
                raise _Fallback
            sql += " LIMIT ?"
            self.params.append(spec["limit"])
        if len(self.params) > self.db.backend.max_params:
            raise _Fallback  # a long IN list; the interpreter has no cap
        return sql, self.params, collect_names

    def _order_terms(self, grouped, output_names):
        spec = self.spec
        terms = []
        keys_are_aliases = all(
            ref.qualifier is None and ref.name in output_names
            for ref, _ in spec["order"]
        )
        if spec["order"]:
            if grouped or spec["distinct"]:
                if not keys_are_aliases:
                    raise _Fallback
                for ref, ascending in spec["order"]:
                    direction = "ASC" if ascending else "DESC"
                    terms.append(f"{quote_ident(ref.name)} {direction}")
            else:
                for ref, ascending in spec["order"]:
                    direction = "ASC" if ascending else "DESC"
                    if keys_are_aliases:
                        terms.append(f"{quote_ident(ref.name)} {direction}")
                    else:
                        terms.append(f"{self._render_ref(ref)} {direction}")
        if not grouped and not spec["distinct"]:
            # Reproduce the interpreter's enumeration order (and its
            # stable sort): nested-loop order is (rid_1, rid_2, ...).
            for _, alias in spec["tables"]:
                terms.append(f'{quote_ident(alias)}."__rid__" ASC')
        return terms


def build_select(db, spec):
    """Render a SELECT spec to ``(sql, params, collect_names)``.

    Returns None when the renderer declines the query (the caller
    falls back to the interpreter) — the differential tests use this
    to pin which side of the seam each query exercises.
    """
    try:
        return _SelectRenderer(db, spec).build()
    except _Fallback:
        return None


def run_native_select(backend, db, spec):
    """Execute a SELECT spec natively; None means 'use the interpreter'."""
    rendered = build_select(db, spec)
    if rendered is None:
        return None
    sql, params, collect_names = rendered
    cursor = backend.execute(sql, params)
    names = [entry[0] for entry in cursor.description]
    results = []
    for values in cursor.fetchall():
        row = dict(zip(names, values))
        for name in collect_names:
            row[name] = json.loads(row[name] or "[]")
        results.append(row)
    return results


def run_native_update(backend, db, spec):
    """Execute an UPDATE spec natively; None means 'use the interpreter'."""
    if not db.has_table(spec["table"]):
        return None
    table = db.table(spec["table"])
    schema = table.schema
    for column, value in spec["assignments"]:
        if not schema.has_column(column):
            return None  # interpreter reproduces the exact error/no-op
        try:
            schema.column(column).check(value)
        except Exception:
            return None
    renderer = _SelectRenderer(db, spec_for_condition(spec))
    renderer.aliases[spec["table"]] = schema
    assignments = []
    for column, value in spec["assignments"]:
        assignments.append(f"{quote_ident(column)} = ?")
        renderer.params.append(value)
    where_sql = ""
    if spec["where"] is not None:
        try:
            where_sql = f" WHERE {renderer._render_condition(spec['where'])}"
        except _Fallback:
            return None
    sql = (
        f"UPDATE {quote_ident(spec['table'])} "
        f"SET {', '.join(assignments)}{where_sql}"
    )
    return backend.execute(sql, renderer.params).rowcount


def run_native_delete(backend, db, spec):
    """Execute a DELETE spec natively; None means 'use the interpreter'."""
    if not db.has_table(spec["table"]):
        return None
    renderer = _SelectRenderer(db, spec_for_condition(spec))
    renderer.aliases[spec["table"]] = db.table(spec["table"]).schema
    where_sql = ""
    if spec["where"] is not None:
        try:
            where_sql = f" WHERE {renderer._render_condition(spec['where'])}"
        except _Fallback:
            return None
    sql = f"DELETE FROM {quote_ident(spec['table'])}{where_sql}"
    return backend.execute(sql, renderer.params).rowcount


def spec_for_condition(spec):
    """A minimal spec shell so DML can reuse the SELECT renderer."""
    return {
        "distinct": False,
        "items": [],
        "tables": [],
        "where": spec.get("where"),
        "group_keys": [],
        "having": None,
        "order": [],
        "limit": None,
    }
