"""Shared helpers for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` lets the paper-style result tables print; EXPERIMENTS.md records
the rows produced this way next to what the paper reports.
"""

from __future__ import annotations

import pytest

from repro import RuleEngine
from repro.dips import DipsMatcher
from repro.engine.stats import MatchStats
from repro.lang.parser import parse_rule
from repro.match import NaiveMatcher
from repro.match.base import NullListener
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory

MATCHERS = {
    "rete": ReteNetwork,
    "naive": NaiveMatcher,
    "dips": DipsMatcher,
}


@pytest.fixture
def engine_factory():
    def factory(matcher_name="rete"):
        return RuleEngine(matcher=MATCHERS[matcher_name]())

    return factory


def build_stats_network(*rules, **network_kwargs):
    """A ``(wm, net, stats)`` triple with match-work counting enabled.

    The ablation benchmarks use this to report *work counters* (join
    tests, probes vs scans, token churn) next to wall-clock timings.
    Rules may be source strings or already-parsed rule objects.
    """
    stats = MatchStats()
    wm = WorkingMemory()
    net = ReteNetwork(stats=stats, **network_kwargs)
    net.set_listener(NullListener())
    net.attach(wm)
    for rule in rules:
        net.add_rule(parse_rule(rule) if isinstance(rule, str) else rule)
    return wm, net, stats


@pytest.fixture
def stats_network():
    return build_stats_network


def load_paper_roster(engine):
    engine.literalize("player", "name", "team")
    for team, name in [
        ("A", "Jack"), ("A", "Janice"),
        ("B", "Sue"), ("B", "Jack"), ("B", "Sue"),
    ]:
        engine.make("player", team=team, name=name)
