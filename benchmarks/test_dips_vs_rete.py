"""Experiment C7 — memory-based vs DBMS-based matching cost.

The paper positions set-oriented constructs as helping "both the
traditional memory-based systems and the emerging disk-based ones".
This bench quantifies the gap our substrate exhibits between the two
ends: per-event match cost of Rete (in-memory dataflow) versus the
DIPS matcher (COND-table updates + SQL delta queries) on the same
program — shows that the DBMS back end's work per update batch is a
function of the batch, not of the table, and that set-oriented
grouping costs it nothing extra.
"""

import time

from repro import MatchStats, RuleEngine
from repro.bench import print_table
from repro.dips import DipsMatcher
from repro.rdb import plan_counters
from repro.rete import ReteNetwork

PROGRAM = """
(literalize E name salary)
(literalize W name job)
(p pairs
  (E ^name <x> ^salary <s>)
  { [W ^name <x> ^job clerk] <Jobs> }
  :test ((count <Jobs>) >= 1)
  -->
  (write x))
"""


def feed(engine, size):
    start = time.perf_counter()
    for index in range(size):
        engine.make("W", name=f"emp{index % 10}", job="clerk")
        engine.make("E", name=f"emp{index % 10}", salary=1000 + index)
    return time.perf_counter() - start


def run_config(matcher_factory, size):
    engine = RuleEngine(matcher=matcher_factory())
    engine.load(PROGRAM)
    elapsed = feed(engine, size)
    return elapsed, engine.conflict_set_size()


def test_rete_vs_dips_per_event(benchmark):
    rows = []
    for size in (10, 20, 40):
        rete_time, rete_cs = run_config(ReteNetwork, size)
        dips_time, dips_cs = run_config(DipsMatcher, size)
        assert rete_cs == dips_cs  # identical conflict sets
        rows.append(
            (
                size * 2,
                f"{rete_time * 1e3:.2f}",
                f"{dips_time * 1e3:.2f}",
                f"{dips_time / rete_time:.0f}x",
            )
        )
    print_table(
        "C7 — same program, memory-based (Rete) vs DBMS-based (DIPS) "
        "matching",
        ["WM events", "rete ms", "dips ms", "dips/rete"],
        rows,
    )
    # Wall clock is printed, not judged: what the DBMS back end must
    # guarantee is counted below (test_dips_work_follows_the_delta).
    benchmark(run_config, ReteNetwork, 20)


UPDATES = 25


def _update_batch_work(size):
    """Counted work of one 25-modify batch over *size* ``E`` rows."""
    stats = MatchStats()
    engine = RuleEngine(matcher=DipsMatcher(backend="memory"), stats=stats)
    engine.load(PROGRAM)
    with engine.batch():
        for index in range(10):
            engine.make("W", name=f"emp{index}", job="clerk")
    live = []
    for base in range(0, size, 1000):
        with engine.batch():
            live.extend(
                engine.make("E", name=f"emp{index % 10}",
                            salary=1000 + index)
                for index in range(base, base + 1000)
            )
    before = dict(stats.counters)
    with plan_counters() as work:
        with engine.batch():
            for index in range(0, size, size // UPDATES):
                engine.modify(live[index], salary=1)
    moved = {
        name: stats.counters[name] - before.get(name, 0)
        for name in ("dips_queries_run", "dips_rows_retrieved")
    }
    conflict_set = engine.conflict_set_size()
    engine.close()
    return moved, work.rows_scanned, conflict_set


def test_dips_work_follows_the_delta():
    """One update batch costs the same at 1 000 and at 8 000 rows: the
    matcher queries the delta (paper §8), so neither the rows it
    retrieves nor the rows its plans read depend on the table."""
    rows = []
    measured = {}
    for size in (1000, 8000):
        moved, scanned, conflict_set = _update_batch_work(size)
        assert conflict_set == size
        measured[size] = (moved, scanned)
        rows.append((
            size, moved["dips_queries_run"],
            moved["dips_rows_retrieved"], scanned,
        ))
    print_table(
        f"C7 — DIPS: counted work of one {UPDATES}-modify batch",
        ["E rows", "queries", "rows retrieved", "rows scanned"],
        rows,
    )
    assert measured[1000] == measured[8000]
    moved, scanned = measured[1000]
    # One delta query; each modified E meets its one W again.
    assert moved == {"dips_queries_run": 1,
                     "dips_rows_retrieved": UPDATES}
    # The 25 new E rows by tag; W's ten instances and its template row
    # by rule_id.
    assert scanned == UPDATES + 10 + 1


def test_dips_grouping_is_free(benchmark):
    """Grouped (set) and ungrouped (tuple) retrieval cost the same."""
    tuple_program = PROGRAM.replace(
        "{ [W ^name <x> ^job clerk] <Jobs> }\n  "
        ":test ((count <Jobs>) >= 1)",
        "(W ^name <x> ^job clerk)",
    )

    def run(program):
        engine = RuleEngine(matcher=DipsMatcher())
        engine.load(program)
        return feed(engine, 20)

    set_time = min(run(PROGRAM) for _ in range(3))
    tuple_time = min(run(tuple_program) for _ in range(3))
    print_table(
        "C7 — DIPS: tuple vs set-oriented rule, same data",
        ["formulation", "time (ms)"],
        [
            ("tuple-oriented", f"{tuple_time * 1e3:.2f}"),
            ("set-oriented", f"{set_time * 1e3:.2f}"),
        ],
    )
    # Within noise of each other: grouping rides the same query.
    assert set_time < tuple_time * 3

    benchmark(run, PROGRAM)
