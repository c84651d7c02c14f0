"""Logical-plan optimisation: hash joins, filter pushdown, index scans.

Three classic rewrites, applied by :func:`optimize`:

* **hash join** — a :class:`~repro.rdb.query.Join` whose condition is
  (a conjunction containing) an equality between a left-side and a
  right-side column is replaced by :class:`HashJoin`, turning the
  O(|L|·|R|) nested loop into O(|L| + |R|) build/probe, with any
  residual condition applied per probe hit;
* **filter pushdown** — a :class:`~repro.rdb.query.Filter` directly
  above a join moves into the join's condition, where the hash-join
  rewrite can then exploit it;
* **index scan** — a filter that has reached a :class:`~repro.rdb.query.Scan`
  and holds ``col = literal`` or ``col IN (literals)`` on an indexed
  column reads only those rows through the index (:class:`IndexScan`);
  the whole filter still runs above it, so the index only has to
  return a superset.  This is what makes the DIPS delta query
  (``wme_tag IN (<inserted tags>)``) cost the delta, not the table.

The DIPS SOI queries are pure equi-joins over COND tables, so this is
exactly the optimisation a disk-based production system would lean on;
the ablation benchmark (``benchmarks/test_ablation_hash_join.py``)
measures the effect.
"""

from __future__ import annotations

from repro.rdb import query as q
from repro.rdb import stats as _plan_stats


def _conjuncts(condition):
    """Flatten a LogicalAnd tree into a list of conjuncts."""
    if isinstance(condition, q.LogicalAnd):
        return _conjuncts(condition.left) + _conjuncts(condition.right)
    return [condition]


def _conjoin(conditions):
    if not conditions:
        return None
    result = conditions[0]
    for condition in conditions[1:]:
        result = q.LogicalAnd(result, condition)
    return result


def _aliases_of(plan):
    """The table aliases a subplan produces."""
    if isinstance(plan, (q.Scan, IndexScan)):
        return {plan.alias}
    if isinstance(plan, (q.Join, HashJoin)):
        return _aliases_of(plan.left) | _aliases_of(plan.right)
    if isinstance(
        plan, (q.Filter, q.OrderBy, q.Distinct, q.Limit)
    ):
        return _aliases_of(plan.child)
    return set()


def _column_side(ref, left_aliases, right_aliases):
    """'left', 'right', or None (unresolvable/unqualified)."""
    if not isinstance(ref, q.ColumnRef) or ref.qualifier is None:
        return None
    if ref.qualifier in left_aliases:
        return "left"
    if ref.qualifier in right_aliases:
        return "right"
    return None


class HashJoin:
    """Equi-join evaluated by build (right) and probe (left).

    ``left_key``/``right_key`` are the equated column refs; a
    ``residual`` condition (possibly None) is evaluated on each probe
    hit.  NULL keys never join (SQL semantics).
    """

    __slots__ = ("left", "right", "left_key", "right_key", "residual")

    def __init__(self, left, right, left_key, right_key, residual=None):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual

    def execute(self, db):
        right_envs = self.right.execute(db)
        buckets = {}
        for env in right_envs:
            key = self.right_key.evaluate(env)
            if key is None:
                continue
            buckets.setdefault(_hash_key(key), []).append(env)
        work = _plan_stats.counters
        results = []
        for left_env in self.left.execute(db):
            key = self.left_key.evaluate(left_env)
            if key is None:
                continue
            hits = buckets.get(_hash_key(key), ())
            if work is not None:
                work.pairs_examined += len(hits)
                work.probe_hits += len(hits)
            for right_env in hits:
                merged = dict(left_env.frames)
                merged.update(right_env.frames)
                env = q.Env(merged)
                if (
                    self.residual is None
                    or self.residual.evaluate(env) is True
                ):
                    results.append(env)
        return results

    def __repr__(self):
        return (
            f"HashJoin({self.left_key.display} = {self.right_key.display})"
        )


class IndexScan:
    """Read the rows of one table whose *column* holds any of *values*.

    The access path behind ``col = literal`` / ``col IN (literals)`` on
    an indexed column.  Rows come back in insertion order, exactly the
    subsequence a :class:`~repro.rdb.query.Scan` would have produced,
    and ``rows_scanned`` counts the rows fetched.
    """

    __slots__ = ("table_name", "alias", "column", "values")

    def __init__(self, table_name, alias, column, values):
        self.table_name = table_name
        self.alias = alias
        self.column = column
        self.values = values

    def execute(self, db):
        table = db.table(self.table_name)
        view = table.index_on(self.column)
        row_ids = set()
        for value in self.values:
            row_ids |= view.lookup(value)
        # Plan nodes never mutate a frame, so the stored rows need no copy.
        envs = [
            q.Env({self.alias: table.get(row_id)})
            for row_id in sorted(row_ids)
        ]
        work = _plan_stats.counters
        if work is not None:
            work.rows_scanned += len(envs)
        return envs

    def __repr__(self):
        return (
            f"IndexScan({self.table_name} AS {self.alias}, {self.column} "
            f"IN {len(self.values)} value(s))"
        )


def _probe_of(conjunct, alias):
    """``(column, values)`` when *conjunct* is ``col = literal`` or
    ``col IN (literals)`` over *alias*, else None."""
    if isinstance(conjunct, q.InList):
        ref, values = conjunct.operand, conjunct.values
    elif isinstance(conjunct, q.Comparison) and conjunct.op == "=":
        ref, literal = conjunct.left, conjunct.right
        if isinstance(ref, q.Literal):
            ref, literal = literal, ref
        if not isinstance(literal, q.Literal):
            return None
        values = [literal.value]
    else:
        return None
    if not isinstance(ref, q.ColumnRef) or ref.qualifier not in (None, alias):
        return None
    # NULL equals nothing, so it selects no row.
    return ref.name, [value for value in values if value is not None]


def _index_scan(scan, predicate, db):
    """The index access path reading the fewest rows for
    ``Filter(scan, predicate)``, or None when no conjunct has one."""
    if db is None or not db.has_table(scan.table_name):
        return None
    table = db.table(scan.table_name)
    best = None
    for conjunct in _conjuncts(predicate):
        probe = _probe_of(conjunct, scan.alias)
        if probe is None:
            continue
        column, values = probe
        view = table.index_on(column)
        if view is None:
            continue
        rows = sum(view.count(value) for value in values)
        if best is None or rows < best[0]:
            best = (rows, column, values)
    if best is None:
        return None
    return IndexScan(scan.table_name, scan.alias, best[1], best[2])


def _hash_key(value):
    # 2 == 2.0 must land in one bucket; Python hashing already agrees.
    return value


def optimize(plan, db=None):
    """Return an optimised copy of *plan* (the input is not mutated).

    Index scans are chosen from *db*'s indexes and their bucket sizes;
    without a database only the join rewrites apply.
    """
    return _rewrite(plan, db)


def _rewrite(plan, db):
    if isinstance(plan, q.Filter):
        child = _rewrite(plan.child, db)
        if isinstance(child, q.Join):
            merged = _conjoin(
                _conjuncts(plan.predicate)
                + (_conjuncts(child.condition) if child.condition else [])
            )
            return _rewrite(q.Join(child.left, child.right, merged), db)
        if isinstance(child, q.Scan):
            child = _index_scan(child, plan.predicate, db) or child
        return q.Filter(child, plan.predicate)
    if isinstance(plan, q.Join):
        return _rewrite_join(plan, db)
    if isinstance(plan, q.Project):
        rewritten = q.Project.__new__(q.Project)
        rewritten.child = _rewrite(plan.child, db)
        rewritten.outputs = plan.outputs
        return rewritten
    if isinstance(plan, q.GroupBy):
        rewritten = q.GroupBy.__new__(q.GroupBy)
        rewritten.child = _rewrite(plan.child, db)
        rewritten.keys = plan.keys
        rewritten.aggregates = plan.aggregates
        rewritten.having = plan.having
        return rewritten
    if isinstance(plan, q.OrderBy):
        rewritten = q.OrderBy.__new__(q.OrderBy)
        rewritten.child = _rewrite(plan.child, db)
        rewritten.sort_keys = plan.sort_keys
        return rewritten
    if isinstance(plan, q.Distinct):
        return q.Distinct(_rewrite(plan.child, db))
    if isinstance(plan, q.Limit):
        return q.Limit(_rewrite(plan.child, db), plan.count)
    return plan


def _referenced_aliases(condition):
    """Qualifiers a condition mentions; None when any ref is unqualified."""
    refs = set()
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, q.ColumnRef):
            if node.qualifier is None:
                return None
            refs.add(node.qualifier)
        elif isinstance(node, q.Comparison):
            stack.extend((node.left, node.right))
        elif isinstance(node, (q.LogicalAnd, q.LogicalOr)):
            stack.extend((node.left, node.right))
        elif isinstance(node, q.LogicalNot):
            stack.append(node.operand)
        elif isinstance(node, (q.IsNull, q.InList)):
            stack.append(node.operand)
    return refs


def _rewrite_join(plan, db):
    conjuncts = (
        _conjuncts(plan.condition) if plan.condition is not None else []
    )
    left_aliases = _aliases_of(plan.left)
    right_aliases = _aliases_of(plan.right)

    # Push single-side conjuncts below the join.
    left_only = []
    right_only = []
    spanning = []
    for conjunct in conjuncts:
        refs = _referenced_aliases(conjunct)
        if refs is not None and refs and refs <= left_aliases:
            left_only.append(conjunct)
        elif refs is not None and refs and refs <= right_aliases:
            right_only.append(conjunct)
        else:
            spanning.append(conjunct)

    left = plan.left
    if left_only:
        left = q.Filter(left, _conjoin(left_only))
    right = plan.right
    if right_only:
        right = q.Filter(right, _conjoin(right_only))
    left = _rewrite(left, db)
    right = _rewrite(right, db)

    # Pick one spanning equality as the hash key; the rest is residual.
    equi = None
    residual = []
    for conjunct in spanning:
        if (
            equi is None
            and isinstance(conjunct, q.Comparison)
            and conjunct.op == "="
        ):
            left_side = _column_side(
                conjunct.left, left_aliases, right_aliases
            )
            right_side = _column_side(
                conjunct.right, left_aliases, right_aliases
            )
            if left_side == "left" and right_side == "right":
                equi = (conjunct.left, conjunct.right)
                continue
            if left_side == "right" and right_side == "left":
                equi = (conjunct.right, conjunct.left)
                continue
        residual.append(conjunct)
    if equi is None:
        return q.Join(left, right, _conjoin(spanning))
    left_key, right_key = equi
    return HashJoin(left, right, left_key, right_key, _conjoin(residual))
