"""Unit tests for the parallel-execution cost model."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RuleEngine
from repro.bench.workloads import process_set_program, process_tuple_program
from repro.engine.parallel import (
    firing_latency,
    measured_schedule,
    run_latency,
    speedup,
    speedup_table,
)
from repro.engine.tracing import FiringRecord
from tests.engine.test_parallel_cycle import PROGRAM, seed


def record_with(tags, kind="modify"):
    """A record that touched *tags* (None means an independent make)."""
    record = FiringRecord(1, "r", True, (1,), len(tags))
    next_tag = 1000
    for tag in tags:
        if tag is None:
            record.makes += 1
            record.touch("make")
        elif kind == "remove":
            record.removes += 1
            record.touch("remove", tag)
        else:
            record.modifies += 1
            record.touch("modify", tag, next_tag)
            next_tag += 1
    return record


class TestFiringLatency:
    def test_sequential_is_total_cost(self):
        # Each modify is a 2-unit remove+insert chain on its element.
        record = record_with([1, 2, 3, 4])
        assert firing_latency(record, 1) == 8

    def test_independent_modifies_divide_by_workers(self):
        record = record_with([1, 2, 3, 4])
        assert firing_latency(record, 2) == 4
        assert firing_latency(record, 4) == 2
        # The 2-unit remove+insert chain cannot be split further.
        assert firing_latency(record, 100) == 2

    def test_removes_are_unit_cost(self):
        record = record_with([1, 2, 3, 4], kind="remove")
        assert firing_latency(record, 1) == 4
        assert firing_latency(record, 4) == 1

    def test_same_element_chain_limits(self):
        record = record_with([1, 1, 1, 2])
        assert firing_latency(record, 100) == 6  # chain on element 1

    def test_makes_are_always_independent(self):
        record = record_with([None, None, None])
        assert firing_latency(record, 3) == 1

    def test_empty_firing(self):
        record = record_with([])
        assert firing_latency(record, 8) == 0

    def test_modify_chain_follows_the_replacement(self):
        # modify(5) -> 1001, then modify(1001): one logical element,
        # so both land on chain root 5 (a 4-unit chain).
        record = FiringRecord(1, "r", True, (1,), 2)
        record.modifies = 2
        record.touch("modify", 5, 1001)
        record.touch("modify", 1001, 1002)
        assert firing_latency(record, 100) == 4


class TestRunModel:
    def test_set_program_speedup_scales(self):
        engine = RuleEngine()
        process_set_program(engine, 64)
        engine.run(limit=5)
        table = speedup_table(engine.tracer, worker_counts=(1, 4, 16, 64))
        latencies = [latency for _, latency, _ in table]
        assert latencies[0] > latencies[-1]
        # 64 independent modifies (+1 control): near-linear speedup.
        assert speedup(engine.tracer, 64) > 30

    def test_tuple_program_cannot_speed_up(self):
        engine = RuleEngine()
        process_tuple_program(engine, 64)
        engine.run(limit=300)
        # One action per firing: more workers achieve nothing.
        assert run_latency(engine.tracer, 1) == run_latency(
            engine.tracer, 64
        )
        assert speedup(engine.tracer, 64) == 1.0


# -- closed form == measured greedy schedule -----------------------------


@st.composite
def traced_records(draw):
    record = FiringRecord(1, "r", True, (1,), 1)
    next_tag = 100
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["make", "remove", "modify"]))
        if kind == "make":
            record.makes += 1
            record.touch("make")
        else:
            tag = draw(st.integers(1, 6))
            if kind == "remove":
                record.removes += 1
                record.touch("remove", tag)
            else:
                record.modifies += 1
                record.touch("modify", tag, next_tag)
                next_tag += 1
    return record


class EagerRoots:
    """Reference for ``FiringRecord.touched_ops``: each action's chain
    root resolved when the action is recorded, a replacement's tag
    mapped to its original's root as the modify happens."""

    def __init__(self):
        self.ops = []
        self.roots = {}

    def touch(self, kind, tag=None, new_tag=None):
        root = None
        if tag is not None:
            root = self.roots.get(tag, tag)
        self.ops.append((kind, root))
        if new_tag is not None and root is not None:
            self.roots[new_tag] = root


@st.composite
def firing_actions(draw):
    """A firing's WM actions over elements 1..4, each aimed at a live
    element: an original, a fact made this firing or a replacement an
    earlier modify of this firing made."""
    live = [1, 2, 3, 4]
    next_tag = 100
    actions = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["make", "remove", "modify"]))
        if kind == "make" or not live:
            actions.append(("make", None, None))
            live.append(next_tag)
            next_tag += 1
            continue
        tag = live.pop(draw(st.integers(0, len(live) - 1)))
        if kind == "remove":
            actions.append(("remove", tag, None))
        else:
            actions.append(("modify", tag, next_tag))
            live.append(next_tag)
            next_tag += 1
    return actions


class TestTouchedOps:
    @given(firing_actions())
    @example([("modify", 5, 1001), ("make", None, None),
              ("remove", 1001, None)])
    @settings(max_examples=200, deadline=None)
    def test_equals_eager_chain_roots(self, actions):
        record = FiringRecord(1, "r", True, (1,), 1)
        reference = EagerRoots()
        for kind, tag, new_tag in actions:
            record.touch(kind, tag, new_tag)
            reference.touch(kind, tag, new_tag)
        assert record.touched_ops == reference.ops


class TestLatencyModelMatchesSchedule:
    @given(traced_records(), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_model_equals_measured_schedule(self, record, workers):
        assert firing_latency(record, workers) == measured_schedule(
            record, workers
        )

    def test_model_on_a_real_traced_run(self):
        engine = RuleEngine()
        engine.load(PROGRAM)
        seed(engine)
        engine.run(limit=30)
        for record in engine.tracer.firings:
            for workers in (1, 2, 4, 100):
                assert firing_latency(record, workers) == (
                    measured_schedule(record, workers)
                )
        engine.close()
