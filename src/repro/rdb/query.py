"""The logical query plan and its interpreter.

Plans are trees of small node objects evaluated bottom-up by
:func:`execute_plan`; rows flow as environments binding one row dict
per table alias, so qualified references (``COND_E.wme_tag``) and
unambiguous bare names both resolve.  Comparison semantics are SQL's
three-valued logic: any comparison touching NULL is *unknown*, and only
*true* rows survive a filter.

Supported plan shapes cover everything the paper's Figure 6 needs and
the usual relational toolbox: scan → filter → (nested-loop) join →
group-by with aggregates (including ``collect``, the nested-relation
aggregate the figure's grouped WME-TAGS column calls for) → project →
distinct → order-by → limit.
"""

from __future__ import annotations

from repro import symbols
from repro.errors import QueryError
from repro.rdb import stats as _plan_stats

# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class Env:
    """Bindings of table aliases to row dicts during evaluation."""

    __slots__ = ("frames",)

    def __init__(self, frames=None):
        self.frames = dict(frames) if frames else {}

    def bind(self, alias, row):
        merged = dict(self.frames)
        merged[alias] = row
        return Env(merged)

    def resolve(self, qualifier, name):
        if qualifier is not None:
            frame = self.frames.get(qualifier)
            if frame is None:
                raise QueryError(f"unknown table alias {qualifier!r}")
            if name not in frame:
                raise QueryError(f"{qualifier} has no column {name!r}")
            return frame[name]
        hits = [frame for frame in self.frames.values() if name in frame]
        if not hits:
            raise QueryError(f"unknown column {name!r}")
        if len(hits) > 1:
            raise QueryError(f"ambiguous column {name!r}; qualify it")
        return hits[0][name]


# ---------------------------------------------------------------------------
# Scalar expressions (SQL three-valued logic)
# ---------------------------------------------------------------------------


class Literal:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def evaluate(self, env):
        return self.value

    def __repr__(self):
        return f"Literal({self.value!r})"


class ColumnRef:
    """A possibly-qualified column reference."""

    __slots__ = ("name", "qualifier")

    def __init__(self, name, qualifier=None):
        self.name = name
        self.qualifier = qualifier

    def evaluate(self, env):
        return env.resolve(self.qualifier, self.name)

    @property
    def display(self):
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __repr__(self):
        return f"ColumnRef({self.display})"


_COMPARE_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


class Comparison:
    """Binary comparison under 3VL: returns True, False, or None."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _COMPARE_OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env):
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if left is None or right is None:
            return None
        if self.op == "=":
            return _values_equal(left, right)
        if self.op in ("!=", "<>"):
            return not _values_equal(left, right)
        try:
            if self.op == "<":
                return left < right
            if self.op == "<=":
                return left <= right
            if self.op == ">":
                return left > right
            return left >= right
        except TypeError:
            raise QueryError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from None

    def __repr__(self):
        return f"Comparison({self.left!r} {self.op} {self.right!r})"


def _values_equal(left, right):
    if symbols.is_number(left) and symbols.is_number(right):
        return left == right
    return type(left) is type(right) and left == right


def _equality_key(value):
    """Two non-NULL values are ``=`` exactly when their keys are equal."""
    return value if symbols.is_number(value) else (type(value), value)


class InList:
    """``expr IN (literal, ...)`` under 3VL.

    True when the operand equals a listed value; otherwise unknown if
    the operand or a listed value is NULL, else false.  An empty list
    is false whatever the operand (sqlite's reading, which the native
    rendering shares).
    """

    __slots__ = ("operand", "values", "_keys", "_has_null")

    def __init__(self, operand, values):
        self.operand = operand
        self.values = list(values)
        self._keys = frozenset(
            _equality_key(value)
            for value in self.values
            if value is not None
        )
        self._has_null = any(value is None for value in self.values)

    def evaluate(self, env):
        if not self.values:
            return False
        left = self.operand.evaluate(env)
        if left is None:
            return None
        try:
            if _equality_key(left) in self._keys:
                return True
        except TypeError:
            # An unhashable cell (a list in an ``any`` column) equals
            # no literal: literals are numbers and strings.
            pass
        return None if self._has_null else False

    def __repr__(self):
        return f"InList({self.operand!r} IN {self.values!r})"


class IsNull:
    """``expr IS [NOT] NULL`` — always two-valued."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def evaluate(self, env):
        result = self.operand.evaluate(env) is None
        return not result if self.negated else result

    def __repr__(self):
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"IsNull({self.operand!r} {word})"


class LogicalAnd:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, env):
        left = self.left.evaluate(env)
        if left is False:
            return False
        right = self.right.evaluate(env)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True

    def __repr__(self):
        return f"LogicalAnd({self.left!r}, {self.right!r})"


class LogicalOr:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, env):
        left = self.left.evaluate(env)
        if left is True:
            return True
        right = self.right.evaluate(env)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    def __repr__(self):
        return f"LogicalOr({self.left!r}, {self.right!r})"


class LogicalNot:
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def evaluate(self, env):
        value = self.operand.evaluate(env)
        if value is None:
            return None
        return not value

    def __repr__(self):
        return f"LogicalNot({self.operand!r})"


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg", "collect")


class Aggregate:
    """An aggregate over a group: ``count(*)``, ``sum(col)``, ``collect``.

    ``collect`` gathers the group's (non-NULL) values into a list — the
    nested-relation column of the paper's Figure 6 result.
    """

    __slots__ = ("func", "operand", "distinct")

    def __init__(self, func, operand=None, distinct=False):
        if func not in AGGREGATE_FUNCS:
            raise QueryError(f"unknown aggregate {func!r}")
        if func != "count" and operand is None:
            raise QueryError(f"{func} needs a column argument")
        self.func = func
        self.operand = operand  # None means '*'
        self.distinct = distinct

    def compute(self, envs):
        if self.operand is None:
            values = [1 for _ in envs]  # count(*)
        else:
            values = [
                value
                for value in (self.operand.evaluate(env) for env in envs)
                if value is not None
            ]
        if self.distinct:
            seen = []
            for value in values:
                if value not in seen:
                    seen.append(value)
            values = seen
        if self.func == "count":
            return len(values)
        if self.func == "collect":
            return list(values)
        if not values:
            return None
        if self.func == "sum":
            return sum(values)
        if self.func == "avg":
            return sum(values) / len(values)
        if self.func == "min":
            return min(values)
        return max(values)

    @property
    def display(self):
        arg = "*" if self.operand is None else self.operand.display
        prefix = "distinct " if self.distinct else ""
        return f"{self.func}({prefix}{arg})"

    def __repr__(self):
        return f"Aggregate({self.display})"


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class Scan:
    """Read one table under an alias (defaults to the table name)."""

    __slots__ = ("table_name", "alias")

    def __init__(self, table_name, alias=None):
        self.table_name = table_name
        self.alias = alias or table_name

    def execute(self, db):
        table = db.table(self.table_name)
        envs = [Env({self.alias: row}) for row in table.scan()]
        work = _plan_stats.counters
        if work is not None:
            work.rows_scanned += len(envs)
        return envs

    def __repr__(self):
        return f"Scan({self.table_name} AS {self.alias})"


class Filter:
    __slots__ = ("child", "predicate")

    def __init__(self, child, predicate):
        self.child = child
        self.predicate = predicate

    def execute(self, db):
        return [
            env
            for env in self.child.execute(db)
            if self.predicate.evaluate(env) is True
        ]

    def __repr__(self):
        return f"Filter({self.predicate!r})"


class Join:
    """Nested-loop join; with no condition it is a cross product."""

    __slots__ = ("left", "right", "condition")

    def __init__(self, left, right, condition=None):
        self.left = left
        self.right = right
        self.condition = condition

    def execute(self, db):
        left_envs = self.left.execute(db)
        right_envs = self.right.execute(db)
        work = _plan_stats.counters
        if work is not None:
            work.pairs_examined += len(left_envs) * len(right_envs)
        results = []
        for left_env in left_envs:
            for right_env in right_envs:
                merged = dict(left_env.frames)
                overlap = set(merged) & set(right_env.frames)
                if overlap:
                    raise QueryError(
                        f"duplicate alias(es) in join: {sorted(overlap)}"
                    )
                merged.update(right_env.frames)
                env = Env(merged)
                if (
                    self.condition is None
                    or self.condition.evaluate(env) is True
                ):
                    results.append(env)
        return results

    def __repr__(self):
        return f"Join(on={self.condition!r})"


class Project:
    """Evaluate (expr, name) pairs into plain output rows."""

    __slots__ = ("child", "outputs")

    def __init__(self, child, outputs):
        self.outputs = []
        for output in outputs:
            if isinstance(output, tuple):
                expression, name = output
            else:
                expression = output
                name = getattr(output, "display", None) or "column"
            self.outputs.append((expression, name))
        self.child = child

    def execute(self, db):
        rows = []
        for env in self.child.execute(db):
            row = {
                name: expression.evaluate(env)
                for expression, name in self.outputs
            }
            rows.append(Env({None: row}))
        return rows

    def __repr__(self):
        return f"Project({[name for _, name in self.outputs]})"


class GroupBy:
    """Group on key expressions; emit keys + aggregates per group.

    Output rows carry the key columns (named by their display text or an
    explicit ``(expr, name)`` pair) and one column per ``(Aggregate,
    name)``.  Rows with equal key tuples form one group; NULL keys group
    together, as in SQL.
    """

    __slots__ = ("child", "keys", "aggregates", "having")

    def __init__(self, child, keys, aggregates, having=None):
        self.child = child
        self.keys = [
            key if isinstance(key, tuple) else (key, key.display)
            for key in keys
        ]
        self.aggregates = list(aggregates)
        self.having = having
        self.child = child

    def execute(self, db):
        groups = {}
        order = []
        for env in self.child.execute(db):
            key = tuple(
                _hashable(expression.evaluate(env))
                for expression, _ in self.keys
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)
        rows = []
        for key in order:
            envs = groups[key]
            row = {}
            for (expression, name), value in zip(self.keys, key):
                row[name] = _unhash(value)
            for aggregate, name in self.aggregates:
                row[name] = aggregate.compute(envs)
            out_env = Env({None: row})
            if self.having is not None:
                if self.having.evaluate(out_env) is not True:
                    continue
            rows.append(out_env)
        return rows

    def __repr__(self):
        return f"GroupBy(keys={[name for _, name in self.keys]})"


class _Null:
    __repr__ = lambda self: "<NULL>"


_NULL_SENTINEL = _Null()


def _hashable(value):
    return _NULL_SENTINEL if value is None else value


def _unhash(value):
    return None if value is _NULL_SENTINEL else value


class OrderBy:
    """Sort by (expr, ascending) keys; NULLs sort first."""

    __slots__ = ("child", "sort_keys")

    def __init__(self, child, sort_keys):
        self.child = child
        self.sort_keys = [
            key if isinstance(key, tuple) else (key, True)
            for key in sort_keys
        ]

    def execute(self, db):
        rows = self.child.execute(db)

        def composite(env):
            parts = []
            for expression, ascending in self.sort_keys:
                value = expression.evaluate(env)
                null_rank = 0 if value is None else 1
                rank = (null_rank, _orderable(value))
                parts.append(rank if ascending else _Inverted(rank))
            return parts

        return sorted(rows, key=composite)

    def __repr__(self):
        return f"OrderBy({len(self.sort_keys)} keys)"


def _orderable(value):
    if value is None:
        return (0, 0, "")
    return symbols.sort_key(value) if symbols.is_value(value) else (2, 0, str(value))


class _Inverted:
    """Wrapper inverting comparison for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return self.value == other.value


class Distinct:
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def execute(self, db):
        seen = []
        result = []
        for env in self.child.execute(db):
            snapshot = tuple(
                sorted(
                    (alias if alias else "", tuple(sorted(
                        (k, _freeze(v)) for k, v in row.items()
                    )))
                    for alias, row in env.frames.items()
                )
            )
            if snapshot not in seen:
                seen.append(snapshot)
                result.append(env)
        return result


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


class Limit:
    __slots__ = ("child", "count")

    def __init__(self, child, count):
        self.child = child
        self.count = count

    def execute(self, db):
        return self.child.execute(db)[: self.count]


def execute_plan(plan, db):
    """Run *plan* against *db*; returns a list of plain row dicts."""
    rows = []
    for env in plan.execute(db):
        if len(env.frames) == 1:
            rows.append(dict(next(iter(env.frames.values()))))
        else:
            merged = {}
            for alias, frame in env.frames.items():
                for name, value in frame.items():
                    merged[f"{alias}.{name}"] = value
            rows.append(merged)
    return rows
