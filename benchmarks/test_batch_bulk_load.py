"""Batched bulk-load: grouped delta propagation vs. per-event (PR 2).

The acceptance claim: bulk-loading >= 10k WMEs into a set-oriented rule
through ``RuleEngine.batch()`` performs at least 2x fewer join tests
than per-event propagation — measured by the MatchStats counters — and
reaches byte-identical conflict sets and firing sequences.

Per-event, every employee WME right-activates the join and runs the
indexed equality test against its probe candidates; batched, the alpha
memory partitions the load by class once, the join probes its token
index once per *department group*, and probe-verified candidates skip
the indexed test entirely, so the surviving test count collapses to the
residual-test volume.  The S-node runs its Figure-3 stages once per
(department, batch) instead of once per employee.
"""

import gc
import time
import tracemalloc

from repro import MatchStats, RuleEngine
from repro.bench import print_table
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory

PROGRAM = """
(literalize dept name)
(literalize emp name dept salary)
(p dept-size
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -->
  (write staffed <d> (count <staff>)))
"""

N_EMPLOYEES = 10_000
N_DEPTS = 25


def _facts(count=N_EMPLOYEES):
    return [
        ("emp", {
            "name": f"e{i}",
            "dept": f"d{i % N_DEPTS}",
            "salary": 1000 + (i % 997),
        })
        for i in range(count)
    ]


def _load(batched, count=N_EMPLOYEES):
    stats = MatchStats()
    engine = RuleEngine(matcher=ReteNetwork(batched=batched), stats=stats)
    engine.load(PROGRAM)
    for d in range(N_DEPTS):
        engine.make("dept", name=f"d{d}")
    facts = _facts(count)
    start = time.perf_counter()
    if batched:
        engine.load_facts(facts)
    else:
        for wme_class, values in facts:
            engine.make(wme_class, **values)
    elapsed = time.perf_counter() - start
    return engine, stats, elapsed


def _conflict_signature(engine):
    return [
        (inst.rule.name, inst.recency_key())
        for inst in engine.conflict_set.ordered(engine.strategy)
        if inst.eligible()
    ]


def _firing_signature(engine):
    engine.run()
    return [(f.rule_name, f.time_tags) for f in engine.tracer.firings]


def test_batched_bulk_load_halves_join_tests(benchmark):
    batched_engine, batched_stats, batched_time = _load(batched=True)
    event_engine, event_stats, event_time = _load(batched=False)

    # Byte-identical conflict sets, then byte-identical firing sequences
    # and rule output.
    assert _conflict_signature(batched_engine) == _conflict_signature(
        event_engine
    )
    assert _firing_signature(batched_engine) == _firing_signature(
        event_engine
    )
    assert batched_engine.output == event_engine.output

    batched_tests = batched_stats.totals["join_tests_attempted"]
    event_tests = event_stats.totals["join_tests_attempted"]
    assert event_tests >= N_EMPLOYEES
    # The acceptance bar is 2x; the grouped probe actually does ~0 tests
    # here because the equality join is fully probe-verified.
    assert batched_tests * 2 <= event_tests

    # The S-node ran its stages once per (department, batch), not once
    # per employee.
    assert batched_stats.totals["snode_batch_reevals"] == N_DEPTS
    assert batched_stats.totals["batch_deltas_net"] == N_EMPLOYEES

    print()
    print_table(
        "batched bulk-load vs per-event (10k WMEs, 25 depts)",
        ["mode", "join tests", "group probes", "alpha acts",
         "snode reevals", "load time (s)"],
        [
            ("per-event", event_tests,
             event_stats.totals["group_probes"],
             event_stats.totals["alpha_activations"],
             event_stats.totals["snode_batch_reevals"],
             f"{event_time:.3f}"),
            ("batched", batched_tests,
             batched_stats.totals["group_probes"],
             batched_stats.totals["alpha_activations"],
             batched_stats.totals["snode_batch_reevals"],
             f"{batched_time:.3f}"),
        ],
    )

    benchmark(_load, True, 1000)


#: Bound on what a batched ``load_facts`` allocates and frees again,
#: per fact: the delta-set buffer is one log of the flushed events, so
#: the transient is that log plus what the matcher's flush needs.
TRANSIENT_BYTES_PER_FACT = 150


def test_batched_bulk_load_transient_memory_per_fact():
    """tracemalloc peak minus retained bytes of the 10k-fact
    ``load_facts``, per fact."""
    engine = RuleEngine(matcher=ReteNetwork(batched=True))
    engine.load(PROGRAM)
    for d in range(N_DEPTS):
        engine.make("dept", name=f"d{d}")
    facts = _facts()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.load_facts(facts)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(engine.wm) == N_EMPLOYEES + N_DEPTS
    transient = (peak - retained) / N_EMPLOYEES
    print(f"\nload_facts: {transient:.0f} B/fact transient, "
          f"{(retained - before) / N_EMPLOYEES:.0f} B/fact retained")
    assert transient < TRANSIENT_BYTES_PER_FACT


#: Retained tracemalloc bytes per 3-attribute fact in a bare working
#: memory: the time-tag entry, the WME and its row of values.  The
#: shape that maps attributes to row indexes is shared by every fact
#: of a class made with the same attributes, so it costs no fact
#: anything; a values dict per fact would add about 100 B.
RESIDENT_BYTES_PER_FACT = 230


def test_working_memory_resident_bytes_per_fact():
    """tracemalloc bytes a 10k-fact ``make_all`` leaves behind, per fact
    (the facts' values exist before the load and are not counted)."""
    wm = WorkingMemory()
    facts = _facts()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = wm.make_all(facts)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(wm) == len(made) == N_EMPLOYEES
    resident = (retained - before) / N_EMPLOYEES
    print(f"\nworking memory: {resident:.0f} B/fact resident")
    assert resident < RESIDENT_BYTES_PER_FACT


def test_batched_high_churn_matches_per_event(benchmark):
    """Mixed make/modify/remove batches stay equivalent and cheaper."""
    def churn(batched):
        stats = MatchStats()
        engine = RuleEngine(
            matcher=ReteNetwork(batched=batched), stats=stats
        )
        engine.load(PROGRAM)
        for d in range(5):
            engine.make("dept", name=f"d{d}")
        staff = engine.load_facts(
            ("emp", {"name": f"e{i}", "dept": f"d{i % 5}", "salary": i})
            for i in range(500)
        )
        with engine.batch():
            for i, wme in enumerate(staff):
                if i % 3 == 0:
                    engine.remove(wme)
                elif i % 3 == 1:
                    engine.modify(wme, salary=wme.get("salary") + 1)
                else:
                    # Transient scratch fact: netted out of the flush.
                    scratch = engine.make(
                        "emp", name=f"tmp{i}", dept=wme.get("dept"),
                        salary=0,
                    )
                    engine.remove(scratch)
        return engine, stats

    batched_engine, batched_stats = churn(True)
    event_engine, event_stats = churn(False)
    assert _conflict_signature(batched_engine) == _conflict_signature(
        event_engine
    )
    assert _firing_signature(batched_engine) == _firing_signature(
        event_engine
    )
    assert (
        batched_stats.totals["join_tests_attempted"]
        <= event_stats.totals["join_tests_attempted"]
    )
    assert batched_stats.totals["deltas_coalesced"] > 0

    benchmark(churn, True)
