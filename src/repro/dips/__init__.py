"""DIPS: production matching inside the relational substrate (paper §8).

Reimplements the DIPS idea (Sellis, Lin & Raschid 1988/89) with the
paper's set-oriented extension:

* :mod:`repro.dips.cond` — COND tables, one per WME class, holding a
  template row per (rule, CE) plus one instance row per matched WME;
  section 8.2's change is built in: instead of per-CE mark *bits*, each
  instance row stores the matched **WME identifier** (time tag), "which
  gives the ability to have multi-sets in WM as OPS5 does";
* :mod:`repro.dips.soi_query` — generates, for any rule, the SQL query
  of Figure 6: join the rule's COND tables on shared variables, keep
  rows whose WME-TAGS are NOT NULL, and GROUP BY the scalar CEs' tags
  and the ``:scalar`` variables to carve out the SOIs — and its
  pre-grouping form, optionally restricted to a batch's WME tags;
* :mod:`repro.dips.matcher` — a full :class:`repro.match.base.Matcher`
  that matches *by querying what each batch changed*, so the engine can
  run whole programs on the DBMS back end (negated CEs — which section
  8 leaves untreated — are applied as residual blocker checks over the
  negated pattern's own COND instance rows);
* :mod:`repro.dips.concurrency` — the concurrent-firing simulator for
  the paper's critique: tuple-oriented instantiations executed as
  parallel transactions "frequently conflict … multiple instantiations
  of a single rule invalidate each other", while one set-oriented
  instantiation per group does not (experiment C5).
"""

from repro.dips.cond import CondStore
from repro.dips.matcher import DipsMatcher
from repro.dips.soi_query import soi_query_sql
from repro.dips.concurrency import (
    ConcurrentFiringResult,
    run_concurrent_firings,
)

__all__ = [
    "ConcurrentFiringResult",
    "CondStore",
    "DipsMatcher",
    "run_concurrent_firings",
    "soi_query_sql",
]
