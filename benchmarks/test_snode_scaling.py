"""Experiment F3b — S-node incremental cost scaling.

The γ-memory design means one token arrival costs a group lookup plus
an O(1) aggregate delta, independent of how many tokens the SOI already
holds (the ordered insert bisects, and new WMEs land at the head, which
is the end of the list).
This bench grows an SOI and measures per-token cost, then sweeps the
number of groups to show the keyed lookup stays flat.
"""

import gc
import random
import statistics
import time

from benchmarks.conftest import build_stats_network

from repro.bench import print_table
from repro.lang.parser import parse_rule
from repro.match.base import NullListener
from repro.rete import ReteNetwork
from repro.rete.snode import SetOrientedInstance
from repro.wm import WorkingMemory

SUM_RULE = (
    "(p watch { [item ^g <g> ^v <v>] <S> } :scalar (<g>) "
    ":test ((sum <S> ^v) >= 0) --> (halt))"
)


def build():
    wm = WorkingMemory()
    net = ReteNetwork()
    net.set_listener(NullListener())
    net.attach(wm)
    net.add_rule(parse_rule(SUM_RULE))
    return wm, net


def grow_one_group(total):
    wm, net = build()
    start = time.perf_counter()
    for index in range(total):
        wm.make("item", g="only", v=index)
    return time.perf_counter() - start


def grow_many_groups(total, groups):
    wm, net = build()
    start = time.perf_counter()
    for index in range(total):
        wm.make("item", g=f"g{index % groups}", v=index)
    return time.perf_counter() - start


def test_per_token_cost_with_soi_size(benchmark):
    rows = []
    for total in (100, 200, 400, 800):
        elapsed = min(grow_one_group(total) for _ in range(3))
        rows.append((total, f"{elapsed:.4f}",
                     f"{elapsed / total * 1e6:.1f}"))
    print_table(
        "F3b — one growing SOI: total time and per-token cost "
        "(head inserts + O(1) aggregate deltas stay flat)",
        ["tokens", "time (s)", "us/token"],
        rows,
    )
    per_token = [float(row[2]) for row in rows]
    # Per-token cost must not blow up as the SOI grows 8x: allow 3x
    # headroom over the smallest measurement for CI noise.
    assert per_token[-1] < per_token[0] * 3

    benchmark(grow_one_group, 400)


def churn_one_group(total):
    """Build a *total*-token SOI, then retract every WME oldest-first.

    Retracting the oldest token used to scan the whole γ-memory token
    list per removal — O(n²) for the teardown; with the bisect-indexed
    ordering it is O(n log n).  Only the teardown is timed.
    """
    wm, net, stats = build_stats_network(SUM_RULE)
    wmes = [wm.make("item", g="only", v=index) for index in range(total)]
    start = time.perf_counter()
    for wme in wmes:
        wm.remove(wme)
    return time.perf_counter() - start, stats


def test_soi_10k_maintenance_subquadratic(benchmark):
    """Acceptance check: 10k-token γ-memory maintenance scales.

    The MatchStats γ-memory counters double-check that the SOI really
    reached the advertised size before the teardown was timed.
    """
    rows = []
    times = {}
    for total in (2500, 10000):
        elapsed, stats = min(
            (churn_one_group(total) for _ in range(3)),
            key=lambda r: r[0],
        )
        snode_record = next(
            record for label, record in stats.nodes.items()
            if label.startswith("snode:")
        )
        assert snode_record["tokens_hwm"] == total
        assert snode_record["groups_hwm"] == 1
        assert snode_record["tokens"] == 0  # fully drained
        times[total] = elapsed
        rows.append((total, f"{elapsed:.4f}",
                     f"{elapsed / total * 1e6:.1f}"))
    print_table(
        "F3b — oldest-first teardown of one SOI "
        "(bisect maintenance: sub-quadratic)",
        ["tokens", "teardown (s)", "us/removal"],
        rows,
    )
    # 4x the tokens: linear maintenance costs ~4x, quadratic ~16x.
    assert times[10000] < times[2500] * 8

    benchmark(churn_one_group, 2500)


def drain_head_first(total, one_batch=False):
    """Build a *total*-token SOI, then retract every WME newest-first.

    This is the order ``set-modify`` / ``set-remove`` walk an SOI in.
    γ-memory keeps the dominant token last, so each removal pops the
    end of the list; kept head-first it was ``del tokens[0]``, a
    memmove of everything behind it per member.  With *one_batch* the
    drain is one delta-set, as a ``set-remove`` firing leaves it: the
    S-node stages the departures and drops the emptied SOI whole.
    """
    wm, net = build()
    wmes = [wm.make("item", g="only", v=index) for index in range(total)]
    gc.collect()
    gc.disable()  # a collection's cost grows with the heap, not the list
    try:
        start = time.perf_counter()
        if one_batch:
            wm.remove_all(reversed(wmes))
        else:
            for wme in reversed(wmes):
                wm.remove(wme)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _median_pair_ratio(sizes, pairs, one_batch):
    """Per-member drain time at ``sizes[1]`` over that at ``sizes[0]``,
    the median over *pairs* back-to-back pairs, alternating which size
    goes first: a slow spell then hits one pair, not one size's best."""
    ratios = []
    for attempt in range(pairs):
        order = sizes if attempt % 2 == 0 else sizes[::-1]
        took = {total: drain_head_first(total, one_batch) / total
                for total in order}
        ratios.append(took[sizes[1]] / took[sizes[0]])
    return statistics.median(ratios)


def test_head_first_drain_is_flat_per_member(benchmark):
    sizes = (2500, 20000)
    # Per event and as one delta-set, each judged by the median ratio
    # of interleaved pairs: unpaired best-of-5 wall clocks flaked when
    # the core's speed moved between the two sizes' runs.
    per_event = _median_pair_ratio(sizes, 9, one_batch=False)
    one_batch = _median_pair_ratio(sizes, 15, one_batch=True)
    print_table(
        "F3b — head-first drain of one SOI (the set-remove order)",
        ["drain", "pairs", "us/member at 20000 / at 2500 (median)"],
        [("per event", 9, f"{per_event:.2f}"),
         ("one batch", 15, f"{one_batch:.2f}")],
    )
    assert per_event < 1.3
    assert one_batch < 1.3

    # The one-batch drain stages every departure against one SOI.
    wm, net, stats = build_stats_network(SUM_RULE)
    wmes = [wm.make("item", g="only", v=index) for index in range(100)]
    wm.remove_all(reversed(wmes))
    assert stats.totals["snode_batch_sois"] == 1
    assert not net.snode_for("watch").gamma

    benchmark(drain_head_first, 2500)


class _StubToken:
    """Bare token standing in for a beta token: just the recency key."""

    __slots__ = ("_tags",)

    def __init__(self, tags):
        self._tags = tuple(sorted(tags, reverse=True))

    def time_tags(self):
        return self._tags


def _reference_insert(tokens, token):
    """The seed's linear-scan insert (head = dominant, ties keep order)."""
    key = token.time_tags()
    for position, existing in enumerate(tokens):
        if key > existing.time_tags():
            tokens.insert(position, token)
            return position == 0
    tokens.append(token)
    return len(tokens) == 1


def _reference_remove(tokens, token):
    """The seed's identity scan."""
    position = next(
        index for index, existing in enumerate(tokens) if existing is token
    )
    del tokens[position]
    return position == 0


def test_soi_ordering_matches_seed_reference(benchmark):
    """The bisect rewrite preserves the seed ordering exactly.

    Random insert/remove interleavings with heavy key ties (tags drawn
    from a small range) must leave the token list — and every head
    change signal, which is what drives conflict-set ordering — equal
    to the linear-scan reference (the SOI stores them dominant-last;
    ``snapshot()`` is the head-first view the reference keeps).
    """
    rng = random.Random(1991)
    soi = SetOrientedInstance(key="ref", key_wmes={}, p_values={},
                              agg_states=[])
    reference = []
    live = []
    for _ in range(3000):
        if live and rng.random() < 0.45:
            token = live.pop(rng.randrange(len(live)))
            got = soi.remove_token(token)
            expected = _reference_remove(reference, token)
        else:
            token = _StubToken(
                (rng.randrange(60), rng.randrange(60))
            )
            live.append(token)
            got = soi.insert_token(token)
            expected = _reference_insert(reference, token)
        assert got == expected
        assert soi.snapshot() == reference

    benchmark(churn_one_group, 1000)


def test_group_count_does_not_hurt(benchmark):
    rows = []
    for groups in (1, 4, 16, 64):
        elapsed = min(grow_many_groups(512, groups) for _ in range(3))
        rows.append((groups, f"{elapsed:.4f}"))
    print_table(
        "F3b — 512 tokens across G groups (keyed γ-memory lookup)",
        ["groups", "time (s)"],
        rows,
    )

    benchmark(grow_many_groups, 512, 16)
