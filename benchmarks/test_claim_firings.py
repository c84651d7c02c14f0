"""Experiment C2 — §7.1 claim: one set firing replaces unbounded iteration.

The same update-every-element task written tuple-oriented (control WME
+ one firing per element + a finish rule — the paper's "unwieldy
control mechanisms and marking schemes") versus set-oriented (one
``set-modify`` firing).  Reports firings and wall time across WM sizes;
the paper's prediction is tuple = N + 2 and set = 1, at every size.

The comparison is only the paper's if our own bookkeeping costs the
same per element at every size, so the scaling test counts the two
Python-level operations that used to grow with N — ``strategy.key``
(conflict resolution was a ``max`` over the whole conflict set each
cycle) and ``WME.__eq__`` (blockers were removed from lists by value) —
and asserts they are flat per element; wall time is printed beside
them, report-only.
"""

import time

from repro import RuleEngine
from repro.bench import print_table
from repro.bench.workloads import process_set_program, process_tuple_program
from repro.engine.conflict import LexStrategy
from repro.wm import WME

SIZES = (10, 50, 100, 250, 500)
SCALING_SIZES = (2_500, 5_000, 10_000)


def run_task(loader, size):
    engine = RuleEngine()
    loader(engine, size)
    start = time.perf_counter()
    fired = engine.run(limit=size * 3 + 10)
    elapsed = time.perf_counter() - start
    done = len(engine.wm.find("item", status="done"))
    return fired, elapsed, done


def test_firing_counts_across_sizes(benchmark):
    rows = []
    for size in SIZES:
        tuple_fired, tuple_time, tuple_done = run_task(
            process_tuple_program, size
        )
        set_fired, set_time, set_done = run_task(process_set_program, size)
        assert tuple_done == set_done == size
        rows.append(
            (
                size,
                tuple_fired,
                set_fired,
                f"{tuple_time:.4f}",
                f"{set_time:.4f}",
                f"{tuple_fired / set_fired:.0f}x",
            )
        )
    print_table(
        "C2 — firings to process an N-element collection "
        "(paper claim: N+2 vs 1)",
        ["N", "tuple firings", "set firings", "tuple s", "set s",
         "firing ratio"],
        rows,
    )
    for (size, tuple_fired, set_fired, *_rest) in rows:
        assert tuple_fired == size + 2
        assert set_fired == 1

    benchmark(run_task, process_set_program, 100)


class _CountingLex(LexStrategy):
    """LEX that counts how often conflict resolution asks for a key."""

    def __init__(self):
        self.calls = 0

    def key(self, instantiation):
        self.calls += 1
        return super().key(instantiation)


def test_bookkeeping_per_element_is_flat(benchmark, monkeypatch):
    """Neither formulation pays more per element as the collection grows."""
    eq_calls = [0]
    wme_eq = WME.__eq__

    def counting_eq(self, other):
        eq_calls[0] += 1
        return wme_eq(self, other)

    monkeypatch.setattr(WME, "__eq__", counting_eq)
    per_element = {"tuple": [], "set": []}
    rows = []
    for size in SCALING_SIZES:
        row = [size]
        for name, loader in (("tuple", process_tuple_program),
                             ("set", process_set_program)):
            strategy = _CountingLex()
            engine = RuleEngine(strategy=strategy)
            loader(engine, size)
            strategy.calls = eq_calls[0] = 0
            start = time.perf_counter()
            engine.run(limit=size * 3 + 10)
            elapsed = time.perf_counter() - start
            assert len(engine.wm.find("item", status="done")) == size
            counts = (strategy.calls / size, eq_calls[0] / size)
            per_element[name].append(counts)
            row += [f"{counts[0]:.3f}", f"{counts[1]:.3f}",
                    f"{elapsed / size * 1e6:.1f}"]
        rows.append(row)
    print_table(
        "C2 — bookkeeping per element of an N-element collection "
        "(counts asserted flat; us/item report-only)",
        ["N", "tuple key calls", "tuple WME.__eq__", "tuple us/item",
         "set key calls", "set WME.__eq__", "set us/item"],
        rows,
    )
    tuple_keys, tuple_eqs = zip(*per_element["tuple"])
    _, set_eqs = zip(*per_element["set"])
    # One key per instantiation that reached selection, not one per
    # live instantiation per cycle; no blocker compared by value.
    assert max(tuple_keys) <= 1.01
    assert max(tuple_keys) - min(tuple_keys) < 0.01
    assert max(tuple_eqs) - min(tuple_eqs) < 0.01
    assert max(set_eqs) - min(set_eqs) < 0.01

    benchmark(run_task, process_tuple_program, 500)


def test_tuple_variant_needs_control_state(benchmark):
    """The tuple program carries control-WME churn the set one avoids."""
    engine_tuple = RuleEngine()
    process_tuple_program(engine_tuple, 50)
    engine_tuple.run(limit=200)
    engine_set = RuleEngine()
    process_set_program(engine_set, 50)
    engine_set.run(limit=200)
    rows = [
        ("tuple", len(engine_tuple.rules),
         engine_tuple.tracer.total_wm_actions()),
        ("set", len(engine_set.rules),
         engine_set.tracer.total_wm_actions()),
    ]
    print_table(
        "C2 — program size and total WM actions (N = 50)",
        ["formulation", "rules needed", "total WM actions"],
        rows,
    )
    assert len(engine_tuple.rules) == 3  # start / process / finish
    assert len(engine_set.rules) == 1

    benchmark(run_task, process_tuple_program, 50)
