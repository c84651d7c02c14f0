"""Match algorithms behind a common interface.

* :class:`~repro.match.base.Matcher` — the abstract contract;
* :class:`~repro.rete.ReteNetwork` — the primary, incremental matcher
  (the paper's extended Rete);
* :class:`~repro.match.naive.NaiveMatcher` — recompute-everything
  baseline, the reference oracle for differential testing;
* :mod:`~repro.match.registry` — the one table naming every matcher
  (these two plus ``dips``) and what each takes.
"""

from repro.match.base import ConflictListener, Matcher, NullListener
from repro.match.naive import NaiveMatcher
from repro.match.registry import (
    MATCHER_NAMES,
    MATCHERS,
    build_matcher,
    matcher_class,
    matcher_name,
    matcher_spec,
)

__all__ = [
    "ConflictListener",
    "MATCHERS",
    "MATCHER_NAMES",
    "Matcher",
    "NaiveMatcher",
    "NullListener",
    "build_matcher",
    "matcher_class",
    "matcher_name",
    "matcher_spec",
]
