"""A mini SQL dialect: enough for the paper's Figure 6 and DIPS.

Supported statements::

    SELECT [DISTINCT] item [, item]* FROM t [AS a] [, t [AS a]]*
        [WHERE cond] [GROUP BY col [, col]*] [HAVING cond]
        [ORDER BY col [ASC|DESC] [, ...]] [LIMIT n]
    INSERT INTO t (col, ...) VALUES (v, ...) [, (v, ...)]*
    UPDATE t SET col = v [, ...] [WHERE cond]
    DELETE FROM t [WHERE cond]
    CREATE TABLE t (col [type] [NOT NULL], ...)
    DROP TABLE t

Select items are column references (``a.b`` or ``b``), literals, or
aggregates (``COUNT(*)``, ``COUNT(x)``, ``SUM/MIN/MAX/AVG/COLLECT(x)``),
optionally ``AS name``.  Conditions combine comparisons
(``= != <> < <= > >=``), ``IS [NOT] NULL``, ``IN (literal, ...)``
(the list may be empty), ``AND``/``OR``/``NOT`` and parentheses.
Identifiers may be double-quoted (``"COND-E"``) to allow the paper's
hyphenated table names; strings use single quotes; keywords are
case-insensitive.
"""

from __future__ import annotations

import re

from repro.errors import SqlError
from repro.rdb import query as q
from repro.rdb.schema import Column, Schema

_TOKEN_RE = re.compile(
    r"""
    \s*(
        (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<quoted_ident>"[^"]+")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\.)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "asc", "desc", "limit", "and", "or", "not", "is", "null",
    "insert", "into", "values", "update", "set", "delete", "create",
    "table", "drop", "as", "in",
}

_AGG_FUNCS = {"count", "sum", "min", "max", "avg", "collect"}


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(sql):
    tokens = []
    pos = 0
    while pos < len(sql):
        if sql[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(sql, pos)
        if not match or match.start(1) != pos:
            raise SqlError(f"cannot tokenize SQL at: {sql[pos:pos + 20]!r}")
        pos = match.end()
        if match.group("number"):
            text = match.group("number")
            value = float(text) if "." in text else int(text)
            tokens.append(_Token("number", value))
        elif match.group("string"):
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", raw))
        elif match.group("quoted_ident"):
            tokens.append(_Token("ident", match.group("quoted_ident")[1:-1]))
        elif match.group("ident"):
            word = match.group("ident")
            lowered = word.lower()
            if lowered in _KEYWORDS:
                tokens.append(_Token("keyword", lowered))
            else:
                tokens.append(_Token("ident", word))
        else:
            tokens.append(_Token("op", match.group("op")))
    tokens.append(_Token("eof", None))
    return tokens


class _SqlParser:
    def __init__(self, sql):
        self.tokens = _tokenize(sql)
        self.pos = 0

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, kind, value=None):
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind, value=None):
        token = self.accept(kind, value)
        if token is None:
            found = self.peek()
            raise SqlError(
                f"expected {value or kind}, found {found.value!r}"
            )
        return token

    def at_keyword(self, *words):
        token = self.peek()
        return token.kind == "keyword" and token.value in words

    # -- statements --------------------------------------------------------

    def parse_statement(self):
        if self.at_keyword("select"):
            return ("select", self._parse_select())
        if self.at_keyword("insert"):
            return ("insert", self._parse_insert())
        if self.at_keyword("update"):
            return ("update", self._parse_update())
        if self.at_keyword("delete"):
            return ("delete", self._parse_delete())
        if self.at_keyword("create"):
            return ("create", self._parse_create())
        if self.at_keyword("drop"):
            return ("drop", self._parse_drop())
        raise SqlError(f"unknown statement start: {self.peek().value!r}")

    # -- SELECT ---------------------------------------------------------------

    def _parse_select(self):
        self.expect("keyword", "select")
        distinct = bool(self.accept("keyword", "distinct"))
        items = self._parse_select_items()
        self.expect("keyword", "from")
        tables = self._parse_from()
        where = None
        if self.accept("keyword", "where"):
            where = self._parse_condition()
        group_keys = []
        if self.accept("keyword", "group"):
            self.expect("keyword", "by")
            group_keys.append(self._parse_column_ref())
            while self.accept("op", ","):
                group_keys.append(self._parse_column_ref())
        having = None
        if self.accept("keyword", "having"):
            having = self._parse_condition()
        order = []
        if self.accept("keyword", "order"):
            self.expect("keyword", "by")
            order.append(self._parse_order_key())
            while self.accept("op", ","):
                order.append(self._parse_order_key())
        limit = None
        if self.accept("keyword", "limit"):
            limit = self.expect("number").value
        self.expect("eof")
        return {
            "distinct": distinct,
            "items": items,
            "tables": tables,
            "where": where,
            "group_keys": group_keys,
            "having": having,
            "order": order,
            "limit": limit,
        }

    def _parse_select_items(self):
        if self.accept("op", "*"):
            return "*"
        items = [self._parse_select_item()]
        while self.accept("op", ","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self):
        expression = self._parse_value_expr(allow_aggregate=True)
        name = None
        if self.accept("keyword", "as"):
            name = self.expect("ident").value
        if name is None:
            name = getattr(expression, "display", None) or "column"
        return (expression, name)

    def _parse_from(self):
        tables = [self._parse_table_ref()]
        while self.accept("op", ","):
            tables.append(self._parse_table_ref())
        return tables

    def _parse_table_ref(self):
        name = self.expect("ident").value
        alias = name
        if self.accept("keyword", "as"):
            alias = self.expect("ident").value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return (name, alias)

    def _parse_order_key(self):
        ref = self._parse_column_ref()
        ascending = True
        if self.accept("keyword", "desc"):
            ascending = False
        else:
            self.accept("keyword", "asc")
        return (ref, ascending)

    # -- conditions --------------------------------------------------------------

    def _parse_condition(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self.accept("keyword", "or"):
            left = q.LogicalOr(left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self.accept("keyword", "and"):
            left = q.LogicalAnd(left, self._parse_not())
        return left

    def _parse_not(self):
        if self.accept("keyword", "not"):
            return q.LogicalNot(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self):
        if self.accept("op", "("):
            inner = self._parse_condition()
            self.expect("op", ")")
            return inner
        left = self._parse_value_expr(allow_aggregate=True)
        if self.accept("keyword", "is"):
            negated = bool(self.accept("keyword", "not"))
            self.expect("keyword", "null")
            return q.IsNull(left, negated)
        if self.accept("keyword", "in"):
            self.expect("op", "(")
            values = []
            if not self.accept("op", ")"):
                values.append(self._parse_literal_value())
                while self.accept("op", ","):
                    values.append(self._parse_literal_value())
                self.expect("op", ")")
            return q.InList(left, values)
        op_token = self.peek()
        if op_token.kind == "op" and op_token.value in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            self.advance()
            right = self._parse_value_expr(allow_aggregate=True)
            return q.Comparison(op_token.value, left, right)
        raise SqlError(f"expected a predicate, found {op_token.value!r}")

    # -- value expressions ----------------------------------------------------------

    def _parse_value_expr(self, allow_aggregate=False):
        token = self.peek()
        if token.kind == "number" or token.kind == "string":
            self.advance()
            return q.Literal(token.value)
        if token.kind == "keyword" and token.value == "null":
            self.advance()
            return q.Literal(None)
        if token.kind == "ident":
            lowered = token.value.lower()
            if (
                allow_aggregate
                and lowered in _AGG_FUNCS
                and self.peek(1).kind == "op"
                and self.peek(1).value == "("
            ):
                return self._parse_aggregate(lowered)
            return self._parse_column_ref()
        raise SqlError(f"expected a value, found {token.value!r}")

    def _parse_aggregate(self, func):
        self.advance()  # function name
        self.expect("op", "(")
        distinct = bool(self.accept("keyword", "distinct"))
        if self.accept("op", "*"):
            operand = None
        else:
            operand = self._parse_column_ref()
        self.expect("op", ")")
        return q.Aggregate(func, operand, distinct=distinct)

    def _parse_column_ref(self):
        first = self.expect("ident").value
        if self.accept("op", "."):
            second = self.expect("ident").value
            return q.ColumnRef(second, qualifier=first)
        return q.ColumnRef(first)

    # -- DML / DDL ---------------------------------------------------------------------

    def _parse_insert(self):
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        table = self.expect("ident").value
        self.expect("op", "(")
        columns = [self.expect("ident").value]
        while self.accept("op", ","):
            columns.append(self.expect("ident").value)
        self.expect("op", ")")
        self.expect("keyword", "values")
        rows = [self._parse_value_tuple(len(columns))]
        while self.accept("op", ","):
            rows.append(self._parse_value_tuple(len(columns)))
        self.expect("eof")
        return {"table": table, "columns": columns, "rows": rows}

    def _parse_value_tuple(self, arity):
        self.expect("op", "(")
        values = [self._parse_literal_value()]
        while self.accept("op", ","):
            values.append(self._parse_literal_value())
        self.expect("op", ")")
        if len(values) != arity:
            raise SqlError(
                f"VALUES arity {len(values)} != column count {arity}"
            )
        return values

    def _parse_literal_value(self):
        token = self.peek()
        if token.kind in ("number", "string"):
            self.advance()
            return token.value
        if token.kind == "keyword" and token.value == "null":
            self.advance()
            return None
        raise SqlError(f"expected a literal, found {token.value!r}")

    def _parse_update(self):
        self.expect("keyword", "update")
        table = self.expect("ident").value
        self.expect("keyword", "set")
        assignments = [self._parse_assignment()]
        while self.accept("op", ","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept("keyword", "where"):
            where = self._parse_condition()
        self.expect("eof")
        return {"table": table, "assignments": assignments, "where": where}

    def _parse_assignment(self):
        column = self.expect("ident").value
        self.expect("op", "=")
        return (column, self._parse_literal_value())

    def _parse_delete(self):
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        table = self.expect("ident").value
        where = None
        if self.accept("keyword", "where"):
            where = self._parse_condition()
        self.expect("eof")
        return {"table": table, "where": where}

    def _parse_create(self):
        self.expect("keyword", "create")
        self.expect("keyword", "table")
        name = self.expect("ident").value
        self.expect("op", "(")
        columns = [self._parse_column_def()]
        while self.accept("op", ","):
            columns.append(self._parse_column_def())
        self.expect("op", ")")
        self.expect("eof")
        return {"table": name, "columns": columns}

    def _parse_column_def(self):
        name = self.expect("ident").value
        col_type = "any"
        token = self.peek()
        if token.kind == "ident" and token.value.lower() in (
            "int", "float", "number", "str", "text", "any",
        ):
            self.advance()
            col_type = token.value.lower()
            if col_type == "text":
                col_type = "str"
        nullable = True
        if self.accept("keyword", "not"):
            self.expect("keyword", "null")
            nullable = False
        return Column(name, col_type, nullable)

    def _parse_drop(self):
        self.expect("keyword", "drop")
        self.expect("keyword", "table")
        name = self.expect("ident").value
        self.expect("eof")
        return {"table": name}


def parse_sql(sql):
    """Parse one statement; returns (kind, spec)."""
    return _SqlParser(sql).parse_statement()


def _build_select_plan(spec):
    plan = None
    for table_name, alias in spec["tables"]:
        scan = q.Scan(table_name, alias)
        plan = scan if plan is None else q.Join(plan, scan)
    if spec["where"] is not None:
        plan = q.Filter(plan, spec["where"])
    if spec["group_keys"]:
        aggregates = []
        keys = []
        if spec["items"] == "*":
            raise SqlError("SELECT * cannot combine with GROUP BY")
        for expression, name in spec["items"]:
            if isinstance(expression, q.Aggregate):
                aggregates.append((expression, name))
            else:
                keys.append((expression, name))
        # Grouping keys not in the select list still partition.
        selected = {name for _, name in keys}
        for ref in spec["group_keys"]:
            if ref.display not in selected and not any(
                k.display == ref.display for k, _ in keys
            ):
                keys.append((ref, ref.display))
        # Order group keys as given in GROUP BY first when they match.
        plan = q.GroupBy(plan, keys, aggregates, having=spec["having"])
    elif spec["items"] != "*" and any(
        isinstance(expression, q.Aggregate)
        for expression, _ in spec["items"]
    ):
        # Aggregate query without GROUP BY: one group of everything.
        aggregates = [
            (expression, name)
            for expression, name in spec["items"]
            if isinstance(expression, q.Aggregate)
        ]
        non_aggregates = [
            name
            for expression, name in spec["items"]
            if not isinstance(expression, q.Aggregate)
        ]
        if non_aggregates:
            raise SqlError(
                f"column(s) {non_aggregates} not allowed without GROUP BY"
            )
        plan = q.GroupBy(plan, [], aggregates, having=spec["having"])
    elif spec["items"] != "*":
        # ORDER BY may reference columns the projection drops (standard
        # SQL): sort before projecting unless every key names a select
        # alias.
        if spec["order"]:
            output_names = {name for _, name in spec["items"]}
            keys_are_aliases = all(
                ref.qualifier is None and ref.name in output_names
                for ref, _ in spec["order"]
            )
            if not keys_are_aliases:
                plan = q.OrderBy(plan, spec["order"])
                spec = dict(spec, order=[])
        plan = q.Project(plan, spec["items"])
    if spec["distinct"]:
        plan = q.Distinct(plan)
    if spec["order"]:
        plan = q.OrderBy(plan, spec["order"])
    if spec["limit"] is not None:
        plan = q.Limit(plan, spec["limit"])
    return plan


def run_sql(db, sql, optimize=True):
    """Parse and execute one statement against *db*.

    SELECT returns a list of row dicts; DML returns an affected-row
    count; DDL returns the table.  ``optimize=False`` skips the
    planner rewrites (hash joins, filter pushdown, index scans) — used
    by the ablation benchmark.
    """
    kind, spec = parse_sql(sql)
    backend = getattr(db, "backend", None)
    native = backend is not None and getattr(
        backend, "supports_native_sql", False
    )
    if kind == "select":
        if native:
            rows = backend.execute_select(db, spec)
            if rows is not None:
                return rows
        plan = _build_select_plan(spec)
        if optimize:
            from repro.rdb.planner import optimize as optimize_plan

            plan = optimize_plan(plan, db)
        return q.execute_plan(plan, db)
    if kind == "insert":
        table = db.table(spec["table"])
        # One atomic batch: a bad row leaves the table untouched.
        table.insert_many(
            dict(zip(spec["columns"], values)) for values in spec["rows"]
        )
        return len(spec["rows"])
    if kind == "update":
        if native:
            count = backend.execute_update(db, spec)
            if count is not None:
                return count
        table = db.table(spec["table"])
        count = 0
        for row_id, row in table.rows():
            if spec["where"] is None or spec["where"].evaluate(
                q.Env({spec["table"]: row})
            ) is True:
                table.update(row_id, dict(spec["assignments"]))
                count += 1
        return count
    if kind == "delete":
        if native:
            count = backend.execute_delete(db, spec)
            if count is not None:
                return count
        table = db.table(spec["table"])
        doomed = [
            row_id
            for row_id, row in table.rows()
            if spec["where"] is None
            or spec["where"].evaluate(q.Env({spec["table"]: row})) is True
        ]
        for row_id in doomed:
            table.delete(row_id)
        return len(doomed)
    if kind == "create":
        return db.create_table(spec["table"], Schema(spec["columns"]))
    if kind == "drop":
        db.drop_table(spec["table"])
        return None
    raise SqlError(f"unhandled statement kind {kind!r}")
