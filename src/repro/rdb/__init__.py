"""A small in-memory relational engine (the DIPS substrate).

The paper's section 8 grounds its set-oriented DIPS proposal in plain
relational machinery: COND tables, selections, joins, ``GROUP BY``, and
transaction semantics.  This package supplies exactly that, built from
scratch:

* :mod:`repro.rdb.schema` / :mod:`repro.rdb.table` — schemas, tables,
  rows, NULL handling;
* :mod:`repro.rdb.index` — hash indexes maintained on mutation;
* :mod:`repro.rdb.query` — a logical-plan interpreter (scan, filter,
  join, group/aggregate, project, order, distinct, limit);
* :mod:`repro.rdb.sql` — a parser for the SQL dialect the paper's
  Figure 6 uses (``SELECT ... FROM ... WHERE ... GROUP BY``, ``IS NOT
  NULL``, qualified names) plus DML/DDL, and prepared statements
  whose ``IN (?)`` lists are bound per run;
* :mod:`repro.rdb.transaction` — optimistic transactions with
  first-committer-wins conflict detection, the mechanism DIPS relies on
  to serialise conflicting instantiations;
* :mod:`repro.rdb.backend` — the pluggable storage-backend seam
  (in-process dicts or out-of-core sqlite; see docs/STORAGE.md).
"""

from repro.rdb.backend import StorageBackend, TableStorage, resolve_backend
from repro.rdb.memory_backend import MemoryBackend
from repro.rdb.sqlite_backend import SqliteBackend
from repro.rdb.schema import Column, Schema
from repro.rdb.table import Table
from repro.rdb.database import Database
from repro.rdb.query import (
    Aggregate,
    ColumnRef,
    Comparison,
    Distinct,
    Filter,
    GroupBy,
    InList,
    IsNull,
    Join,
    Limit,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    OrderBy,
    Project,
    Scan,
    execute_plan,
)
from repro.rdb.sql import Statement, prepare_sql, run_sql
from repro.rdb.planner import HashJoin, IndexScan, optimize
from repro.rdb.stats import PlanCounters, plan_counters
from repro.rdb.transaction import (
    Transaction,
    TransactionManager,
)

__all__ = [
    "Aggregate",
    "Column",
    "ColumnRef",
    "Comparison",
    "Database",
    "Distinct",
    "Filter",
    "GroupBy",
    "HashJoin",
    "InList",
    "IndexScan",
    "IsNull",
    "Join",
    "Limit",
    "Literal",
    "LogicalAnd",
    "LogicalNot",
    "LogicalOr",
    "MemoryBackend",
    "OrderBy",
    "PlanCounters",
    "Project",
    "Scan",
    "Schema",
    "SqliteBackend",
    "Statement",
    "StorageBackend",
    "Table",
    "TableStorage",
    "Transaction",
    "TransactionManager",
    "resolve_backend",
    "execute_plan",
    "optimize",
    "plan_counters",
    "prepare_sql",
    "run_sql",
]
