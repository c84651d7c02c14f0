"""Ablation — indexed join activations in the Rete network.

Equality joins probe a hash index on both inputs, and range-only joins
(`<`, `<=`, `>`, `>=`) an ordered index, instead of scanning the whole
opposite memory (`ReteNetwork(indexed_joins=False)` restores the scan).
Candidate filtering is unchanged — every candidate still passes the
full test list — so this is purely a cost ablation, guarded by the
differential equivalence suite.
"""

import time

from benchmarks.conftest import build_stats_network

from repro.bench import print_table
from repro.lang.parser import parse_rule
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory

RULE = "(p pair (left ^k <k>) (right ^k <k>) --> (halt))"

#: The shape of ``over-cap`` in the repo benchmark: no equality test.
RANGE_RULE = "(p over (limit ^cap <c>) (order ^qty > <c>) --> (halt))"


def run(indexed, size):
    wm, net, stats = build_stats_network(RULE, indexed_joins=indexed)
    start = time.perf_counter()
    for key in range(size):
        wm.make("left", k=key)
    for key in range(size):
        wm.make("right", k=key)
    elapsed = time.perf_counter() - start
    return elapsed, net, stats


def test_join_index_ablation(benchmark):
    rows = []
    for size in (100, 200, 400):
        scan_time, _, scan_stats = min(
            (run(False, size) for _ in range(3)), key=lambda r: r[0]
        )
        probe_time, _, probe_stats = min(
            (run(True, size) for _ in range(3)), key=lambda r: r[0]
        )
        scan_work = scan_stats.totals
        probe_work = probe_stats.totals
        # Identical results either way.
        assert (
            scan_work["tokens_created"] == probe_work["tokens_created"]
        )
        # The work counters tell the real story: the scan configuration
        # never probes and examines O(n) candidates per activation; the
        # indexed one replaces those scans with probes that surface only
        # the matching bucket.  (Level-0 joins still "scan" the 1-token
        # dummy memory, so compare candidate volume, not scan count.)
        assert scan_work["index_probes"] == 0
        assert probe_work["index_probes"] > 0
        assert (
            probe_work["full_scan_candidates"]
            + probe_work["index_probe_candidates"]
            < scan_work["full_scan_candidates"] / 10
        )
        assert (
            scan_work["join_tests_passed"]
            == probe_work["join_tests_passed"]
        )
        rows.append(
            (
                size * 2,
                f"{scan_time:.4f}",
                f"{probe_time:.4f}",
                scan_work["full_scan_candidates"],
                probe_work["index_probe_candidates"],
                f"{scan_time / probe_time:.1f}x",
            )
        )
    print_table(
        "Ablation — equality joins: memory scan vs hash-index probe "
        "(1:1 key join)",
        ["WMEs", "scan s", "indexed s", "scan cands", "probe cands",
         "speedup"],
        rows,
    )
    # The scan is O(n) per activation -> quadratic build; probing wins
    # by a growing factor.
    assert float(rows[-1][5].rstrip("x")) > 3.0

    benchmark(run, True, 200)


def run_range(indexed, size):
    """Orders, then ten caps near the top (left activations), then the
    orders again (right activations): a few per cent of pairs pass."""
    wm, net, stats = build_stats_network(RANGE_RULE, indexed_joins=indexed)
    start = time.perf_counter()
    for qty in range(size):
        wm.make("order", qty=qty)
    for cap in range(size - 10, size):
        wm.make("limit", cap=cap)
    for qty in range(size):
        wm.make("order", qty=qty)
    return time.perf_counter() - start, net, stats


def test_range_join_index_ablation(benchmark):
    rows = []
    for size in (100, 200, 400):
        scan_time, _, scan_stats = run_range(False, size)
        probe_time, _, probe_stats = run_range(True, size)
        scan_work = scan_stats.totals
        probe_work = probe_stats.totals
        assert (
            scan_work["tokens_created"] == probe_work["tokens_created"]
        )
        assert (
            scan_work["join_tests_passed"]
            == probe_work["join_tests_passed"]
        )
        assert scan_work["index_probes"] == 0
        assert probe_work["index_probes"] > 0
        assert (
            probe_work["full_scan_candidates"]
            + probe_work["index_probe_candidates"]
            < scan_work["full_scan_candidates"] / 10
        )
        rows.append((
            size * 2 + 10,
            f"{scan_time:.4f}",
            f"{probe_time:.4f}",
            scan_work["full_scan_candidates"],
            probe_work["index_probe_candidates"],
        ))
    print_table(
        "Ablation — range joins: memory scan vs ordered-index probe "
        "(^qty > <c>, ten caps near the top)",
        ["WMEs", "scan s", "indexed s", "scan cands", "probe cands"],
        rows,
    )

    benchmark(run_range, True, 200)


def test_index_maintained_under_churn(benchmark):
    """Removals keep the index exact (probed results == rescans)."""
    wm = WorkingMemory()
    net = ReteNetwork(indexed_joins=True)
    from repro.engine.conflict import ConflictSet

    listener = ConflictSet()
    net.set_listener(listener)
    net.attach(wm)
    net.add_rule(parse_rule(RULE))
    lefts = [wm.make("left", k=key % 10) for key in range(50)]
    rights = [wm.make("right", k=key % 10) for key in range(50)]
    for wme in lefts[::2] + rights[::3]:
        wm.remove(wme)
    live_left = [w for w in lefts if w in wm]
    live_right = [w for w in rights if w in wm]
    expected = sum(
        1
        for l in live_left
        for r in live_right
        if l.get("k") == r.get("k")
    )
    assert len(listener) == expected

    benchmark(run, False, 100)
