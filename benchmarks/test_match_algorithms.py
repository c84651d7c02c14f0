"""Experiment C6 — match algorithms: Rete vs naive.

The related-work context of the paper (Forgy 1982): the cost of
incremental match.  A join-heavy workload with add/remove churn is
pushed through both matchers; the expected shape is naive >> Rete
(Rete reuses β memories, naive recomputes every rule's matches after
each change), with the gap widening as WM grows.
"""

import time

from repro import MatchStats
from repro.bench import print_table
from repro.bench.workloads import chain_events, chain_program
from repro.lang.parser import parse_program
from repro.match import NaiveMatcher
from repro.match.base import NullListener
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory

MATCHERS = {
    "rete": ReteNetwork,
    "naive": NaiveMatcher,
}


def run_workload(matcher_name, nodes):
    wm = WorkingMemory()
    matcher = MATCHERS[matcher_name]()
    matcher.set_listener(NullListener())
    matcher.attach(wm)
    _, rules = parse_program(chain_program(rule_count=4, chain_length=3))
    for rule in rules:
        matcher.add_rule(rule)
    start = time.perf_counter()
    wmes = chain_events(wm, lanes=4, nodes=nodes, seed=5)
    for wme in wmes[::2]:
        wm.remove(wme)
    return time.perf_counter() - start


def test_match_cost_comparison(benchmark):
    rows = []
    for nodes in (6, 10, 14):
        timings = {
            name: min(run_workload(name, nodes) for _ in range(3))
            for name in MATCHERS
        }
        rows.append(
            (
                nodes * 4,
                f"{timings['rete']:.4f}",
                f"{timings['naive']:.4f}",
                f"{timings['naive'] / timings['rete']:.1f}x",
            )
        )
    print_table(
        "C6 — match time by algorithm (chain joins with 50% removal "
        "churn; shape: naive >> rete)",
        ["WMEs", "rete s", "naive s", "naive/rete"],
        rows,
    )
    # The naive matcher must lose by a wide margin at the largest size.
    naive_over_rete = float(rows[-1][3].rstrip("x"))
    assert naive_over_rete > 3.0

    benchmark(run_workload, "rete", 10)


def test_join_attempt_counters(benchmark):
    """Work counters tell the same story as wall time."""

    def counted(matcher_cls):
        wm = WorkingMemory()
        stats = MatchStats()
        matcher = matcher_cls()
        matcher.set_stats(stats)
        matcher.set_listener(NullListener())
        matcher.attach(wm)
        _, rules = parse_program(chain_program(rule_count=4, chain_length=3))
        for rule in rules:
            matcher.add_rule(rule)
        wmes = chain_events(wm, lanes=4, nodes=10, seed=5)
        for wme in wmes[::2]:
            wm.remove(wme)
        return stats.totals["join_tests_attempted"]

    rete = counted(ReteNetwork)
    naive = counted(NaiveMatcher)
    rows = [
        ("rete join attempts", rete),
        ("naive join attempts", naive),
    ]
    print_table(
        "C6 — join-attempt counters (same workload)",
        ["matcher", "join attempts"],
        rows,
    )
    assert naive > rete

    benchmark(counted, ReteNetwork)
