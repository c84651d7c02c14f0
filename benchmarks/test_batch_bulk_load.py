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
import sys
import time
import tracemalloc

from repro import MatchStats, RuleEngine
from repro.bench import print_table
from repro.engine.tracing import FiringRecord
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


def _retained_bytes(load):
    """``load()``'s result and the tracemalloc bytes it leaves behind
    after a collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_working_memory_resident_bytes_per_fact():
    """tracemalloc bytes a 10k-fact ``make_all`` leaves behind, per fact
    (the facts' values exist before the load and are not counted)."""
    wm = WorkingMemory()
    facts = _facts()
    made, retained = _retained_bytes(lambda: wm.make_all(facts))
    assert len(wm) == len(made) == N_EMPLOYEES
    resident = retained / N_EMPLOYEES
    print(f"\nworking memory: {resident:.0f} B/fact resident")
    assert resident < RESIDENT_BYTES_PER_FACT


#: Retained tracemalloc bytes per member of a 10k-fact ``load_facts``
#: under one set-oriented CE: the fact, its alpha-memory entries, its
#: one token and the S-node's record of it.  The network finds a
#: WME's tokens through the head of an intrusive chain, not a set per
#: WME (about 216 B more).
LOADED_BYTES_PER_MEMBER = 540

ONE_SET_CE = """
(literalize emp name dept salary)
(p payroll
  { [emp] <staff> }
  -->
  (halt))
"""


def test_load_facts_resident_bytes_per_member():
    """tracemalloc bytes a 10k-fact ``load_facts`` under a one-set-CE
    rule leaves behind, per member."""
    engine = RuleEngine(matcher=ReteNetwork(batched=True))
    engine.load(ONE_SET_CE)
    facts = _facts()
    _, retained = _retained_bytes(lambda: engine.load_facts(facts))
    assert len(engine.conflict_set) == 1
    resident = retained / N_EMPLOYEES
    print(f"\nload_facts under one set CE: {resident:.0f} B/member resident")
    assert resident < LOADED_BYTES_PER_MEMBER


#: Bytes a set-modify firing's record holds for its WM actions, per
#: member: three flat list entries per action plus the old and new time
#: tags.  A tuple per action would add about 64 B.
RECORD_BYTES_PER_MEMBER = 120

SET_MODIFY = """
(literalize item status value)
(literalize control phase)
(p process-all
  (control ^phase start)
  { [item ^status raw] <Items> }
  -->
  (set-modify <Items> ^status done)
  (modify 1 ^phase finished))
"""


def _deep_size(*roots):
    """``sys.getsizeof`` summed over every object reachable from *roots*
    through lists, tuples and dicts, each object counted once."""
    seen = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return total


def test_set_modify_record_bytes_per_member():
    """Deep size of what a 10k-member set-modify firing's record holds
    besides the instantiation's time tags, per member."""
    engine = RuleEngine()
    engine.load(SET_MODIFY)
    engine.load_facts(
        ("item", {"status": "raw", "value": i}) for i in range(N_EMPLOYEES)
    )
    engine.make("control", phase="start")
    engine.run()
    [record] = engine.tracer.firings_of("process-all")
    assert record.modifies == N_EMPLOYEES + 1
    held = _deep_size(*(
        getattr(record, name)
        for name in FiringRecord.__slots__
        if name != "time_tags"
    ))
    per_member = held / N_EMPLOYEES
    print(f"\nset-modify firing record: {per_member:.0f} B/member")
    assert per_member < RECORD_BYTES_PER_MEMBER


def _collections_inside(work):
    """Run *work* from a fresh collection; return its result and the
    generation of every cyclic-collector run that started inside it
    (counted by a ``gc.callbacks`` hook)."""
    inside = [False]
    started = []

    def note(phase, info):
        if phase == "start" and inside[0]:
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        inside[0] = True
        result = work()
        inside[0] = False
    finally:
        inside[0] = False
        gc.callbacks.remove(note)
    return result, started


def test_no_collection_inside_a_set_sized_delta_set():
    """The collector fires on allocation counts: left on, a 10k-fact
    ``load_facts`` started 86 collections and a 10k-member
    ``set-modify`` firing 57 (CPython 3.11).  Working memory pauses it
    over the delta-set, and the engine over a set firing, so neither
    starts one; both leave it as they found it."""
    engine = RuleEngine(matcher=ReteNetwork(batched=True))
    engine.load(PROGRAM)
    for d in range(N_DEPTS):
        engine.make("dept", name=f"d{d}")
    facts = _facts()
    assert gc.isenabled()
    made, started = _collections_inside(lambda: engine.load_facts(facts))
    assert len(made) == N_EMPLOYEES
    assert started == []
    assert gc.isenabled()

    engine = RuleEngine()
    engine.load(SET_MODIFY)
    engine.load_facts(
        ("item", {"status": "raw", "value": i}) for i in range(N_EMPLOYEES)
    )
    engine.make("control", phase="start")
    fired, started = _collections_inside(engine.run)
    assert fired == 1
    assert len(engine.wm.find("item", status="done")) == N_EMPLOYEES
    assert started == []
    assert gc.isenabled()


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
