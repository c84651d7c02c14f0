"""Crash + recover == never crashed, for every matcher.

The durability contract (``docs/DURABILITY.md``): after a crash at any
point, ``RuleEngine.recover()`` rebuilds working memory, the conflict
set (contents, dominance order, refire eligibility), and the
subsequent firing order *identical to the uninterrupted run* — up to
the last durable WAL record.  Three crash models are exercised:

* **abrupt stop** — the process dies without ``close()``; every
  flushed record survives, so the recovered engine equals the full
  uninterrupted state and continues firing identically;
* **torn append** — the n-th WAL append writes only a prefix of its
  frame (``FaultInjector(torn_append=...)``); the recovered engine
  equals the state just before the torn operation;
* **crash inside checkpointing** — at each named checkpoint fault
  point, in an explicit checkpoint and in the self-checkpoint that
  ends a ``run()``; recovery must land on the full pre-checkpoint
  state whether or not the new checkpoint became CURRENT.

Workloads are randomized (seeded for the cross-matcher matrix,
hypothesis-driven for Rete) over makes, modifies, removes, and
interleaved ``run()`` calls — some of them with the self-checkpoint
bound at zero, so the run checkpoints itself — against a rule
portfolio with a join, a negation, and a set-oriented aggregate.

Every model runs under each fsync policy: ``always`` (a sync per
record) is the oracle for ``batch`` (one sync per batch, ``run()`` or
served request — group commit), and both must leave the bytes ``off``
leaves.  :class:`TestGroupCommit` pins that down for one ``run()``.
"""

import random
import shutil
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DurabilityConfig, MatchStats, RuleEngine
from repro.durability import FaultInjector, SimulatedCrash, manager
from repro.dips.matcher import DipsMatcher
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork

from tests.conftest import cs_state

PROGRAM = """
(literalize item owner v)
(literalize owner name)
(p pair (item ^owner <o> ^v <v>) (owner ^name <o>) --> (write <o> <v>))
(p lonely (item ^owner <o>) -(owner ^name <o>) --> (write <o>))
(p tally { [item ^owner <o> ^v <v>] <S> }
  :scalar (<o>)
  :test ((count <S>) >= 2)
  -->
  (write <o> (count <S>)))
"""

FSYNC = ("off", "batch", "always")

MATCHERS = {
    "rete": ReteNetwork,
    "naive": NaiveMatcher,
    "dips": DipsMatcher,
}


def _random_ops(rng, n):
    """A mixed workload: single ops, batches, and run points."""
    ops = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.35:
            ops.append(("make", "item", rng.choice("ab"),
                        rng.randrange(4)))
        elif kind < 0.5:
            ops.append(("make", "owner", rng.choice("ab"), 0))
        elif kind < 0.65:
            ops.append(("modify", rng.randrange(1, 40), rng.randrange(4)))
        elif kind < 0.75:
            ops.append(("remove", rng.randrange(1, 40)))
        elif kind < 0.9:
            ops.append(("batch", [
                ("make", "item", rng.choice("ab"), rng.randrange(4))
                for _ in range(rng.randrange(1, 4))
            ]))
        elif kind < 0.95:
            ops.append(("run", rng.randrange(1, 5)))
        else:
            ops.append(("selfckpt", rng.randrange(1, 5)))
    return ops


def _plain_runs(ops):
    """*ops* with each self-checkpointing run made a plain run, for
    tests that count the hits of checkpoint fault points."""
    return [("run", op[1]) if op[0] == "selfckpt" else op for op in ops]


@contextmanager
def _checkpoint_due():
    """The self-checkpoint bound at zero: a durable ``run()`` that has
    logged anything since the last checkpoint ends by writing one."""
    saved = manager.FLOOR, manager.MULTIPLE
    manager.FLOOR = manager.MULTIPLE = 0
    try:
        yield
    finally:
        manager.FLOOR, manager.MULTIPLE = saved


def _apply_op(engine, op):
    kind = op[0]
    if kind == "make":
        _, cls, key, v = op
        if cls == "item":
            engine.make("item", owner=key, v=v)
        else:
            engine.make("owner", name=key)
    elif kind == "modify":
        _, tag, v = op
        wme = engine.wm.get(tag)
        if wme is not None and wme.wme_class == "item":
            engine.modify(wme, v=v)
    elif kind == "remove":
        wme = engine.wm.get(op[1])
        if wme is not None:
            engine.remove(wme)
    elif kind == "batch":
        with engine.batch():
            for sub in op[1]:
                _apply_op(engine, sub)
    elif kind == "run":
        engine.run(limit=op[1])
    elif kind == "selfckpt":
        with _checkpoint_due():
            engine.run(limit=op[1])
    else:  # pragma: no cover - workload generator bug
        raise AssertionError(op)


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def firing_trace(engine, limit=60):
    """Run to quiescence, recording (rule, recency tags) per firing."""
    trace = []
    for _ in range(limit):
        inst = engine.step()
        if inst is None:
            break
        trace.append((inst.rule.name, tuple(inst.recency_key())))
    return trace


def _assert_equal_state(recovered, reference):
    assert wm_state(recovered) == wm_state(reference)
    assert cs_state(recovered) == cs_state(reference)
    assert firing_trace(recovered) == firing_trace(reference)
    assert recovered.output == reference.output


def _reference_run(ops):
    reference = RuleEngine()
    reference.load(PROGRAM)
    for op in ops:
        _apply_op(reference, op)
    reference.tracer.output.clear()
    return reference


class TestAbruptStopAllMatchers:
    @pytest.mark.parametrize("fsync", FSYNC)
    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovered_equals_uninterrupted(self, matcher, seed, fsync,
                                            tmp_path):
        ops = _random_ops(random.Random(seed * 31 + 7), 25)
        durable = RuleEngine(
            matcher=MATCHERS[matcher](),
            durability=DurabilityConfig(tmp_path, fsync=fsync),
        )
        durable.load(PROGRAM)
        for op in ops:
            _apply_op(durable, op)
        # Crash: the process stops here without close(); every record
        # already reached the OS, so nothing durable is lost.
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert type(recovered.matcher) is MATCHERS[matcher]
        _assert_equal_state(recovered, _reference_run(ops))


class TestTornAppend:
    @pytest.mark.parametrize("fsync", FSYNC)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_recovery_rolls_back_to_before_the_torn_op(self, seed, fsync,
                                                       tmp_path):
        rng = random.Random(seed)
        # Pure-WM workload, every op wrapped in a batch: each op emits
        # at most ONE WAL record (the net delta-set), so the op whose
        # record tears is exactly the op whose effects are lost.
        ops = [op for op in _random_ops(rng, 30)
               if op[0] not in ("run", "selfckpt")]
        # Skip past the session prelude (meta + literalize + rules).
        tear_at = rng.randrange(8, 8 + len(ops) // 2)
        fault = FaultInjector(torn_append=(tear_at, 0.5))
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync=fsync,
                                        fault=fault)
        )
        durable.load(PROGRAM)
        completed = 0
        try:
            for op in ops:
                with durable.batch():
                    _apply_op(durable, op)
                completed += 1
        except SimulatedCrash:
            pass
        recovered = RuleEngine.recover(tmp_path, durability=False)
        if fault.crashed:
            assert completed < len(ops)
            assert recovered.recovery_report.tail_damaged
        reference = RuleEngine()
        reference.load(PROGRAM)
        for op in ops[:completed]:
            with reference.batch():
                _apply_op(reference, op)
        _assert_equal_state(recovered, reference)


class TestCheckpointCrashes:
    @pytest.mark.parametrize("point", [
        "checkpoint.begin",
        "checkpoint.files",
        "checkpoint.rename",
        "checkpoint.current",
        "checkpoint.truncate",
    ])
    @pytest.mark.parametrize("fsync", FSYNC)
    def test_any_checkpoint_crash_preserves_state(self, point, fsync,
                                                  tmp_path):
        ops = _plain_runs(_random_ops(random.Random(99), 20))
        fault = FaultInjector(crash_at={point: 1})
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync=fsync,
                                        fault=fault)
        )
        durable.load(PROGRAM)
        for op in ops:
            _apply_op(durable, op)
        with pytest.raises(SimulatedCrash):
            durable.checkpoint()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        _assert_equal_state(recovered, _reference_run(ops))

    def test_crash_after_one_good_checkpoint(self, tmp_path):
        # First checkpoint succeeds; the second crashes mid-rename.
        # Recovery must use whichever checkpoint CURRENT names plus the
        # WAL tail, landing on the same state either way.
        ops = _plain_runs(_random_ops(random.Random(123), 15))
        more = _plain_runs(_random_ops(random.Random(124), 10))
        fault = FaultInjector(crash_at={"checkpoint.rename": 2})
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off",
                                        fault=fault)
        )
        durable.load(PROGRAM)
        for op in ops:
            _apply_op(durable, op)
        durable.checkpoint()
        for op in more:
            _apply_op(durable, op)
        with pytest.raises(SimulatedCrash):
            durable.checkpoint()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        _assert_equal_state(recovered, _reference_run(ops + more))


class TestSelfCheckpointCrashes:
    @pytest.mark.parametrize("point", [
        "checkpoint.begin",
        "checkpoint.files",
        "checkpoint.rename",
        "checkpoint.current",
        "checkpoint.truncate",
    ])
    @pytest.mark.parametrize("fsync", FSYNC)
    def test_crash_in_the_checkpoint_ending_a_run(self, point, fsync,
                                                  tmp_path):
        # The run's frames are synced before its self-checkpoint
        # starts, so a crash anywhere inside it recovers the whole run.
        ops = _plain_runs(_random_ops(random.Random(99), 20))
        fault = FaultInjector(crash_at={point: 1})
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync=fsync,
                                        fault=fault)
        )
        durable.load(PROGRAM)
        for op in ops:
            _apply_op(durable, op)
        assert fault.counts.get(point, 0) == 0
        with pytest.raises(SimulatedCrash):
            _apply_op(durable, ("selfckpt", None))
        assert fault.counts[point] == 1
        assert durable.last_run_report.reason == "quiescent"
        recovered = RuleEngine.recover(tmp_path, durability=False)
        _assert_equal_state(recovered, _reference_run(ops + [("run", None)]))


_op = st.one_of(
    st.tuples(st.just("make"), st.just("item"),
              st.sampled_from(["a", "b"]), st.integers(0, 3)),
    st.tuples(st.just("make"), st.just("owner"),
              st.sampled_from(["a", "b"]), st.just(0)),
    st.tuples(st.just("modify"), st.integers(1, 30), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(1, 30)),
    st.tuples(st.just("run"), st.integers(1, 4)),
    st.tuples(st.just("selfckpt"), st.integers(1, 4)),
)


class TestHypothesisRete:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=20),
           fsync=st.sampled_from(FSYNC))
    def test_abrupt_stop_round_trip(self, ops, fsync):
        # tempfile instead of tmp_path: hypothesis reuses the fixture
        # across examples, which would accrete WAL state.
        wal_dir = tempfile.mkdtemp(prefix="crashprop-")
        try:
            durable = RuleEngine(
                durability=DurabilityConfig(wal_dir, fsync=fsync)
            )
            durable.load(PROGRAM)
            for op in ops:
                _apply_op(durable, op)
            recovered = RuleEngine.recover(wal_dir, durability=False)
            _assert_equal_state(recovered, _reference_run(ops))
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)


RUN_PROGRAM = PROGRAM + """
(literalize done owner v)
(p mark (item ^owner <o> ^v <v>) -(done ^owner <o> ^v <v>)
  --> (make done ^owner <o> ^v <v>))
"""


def _loaded(wal_dir=None, fsync="off", fault=None):
    """An engine one ``run()`` of many firings away from quiescence."""
    stats = MatchStats()
    engine = RuleEngine(stats=stats, durability=None if wal_dir is None else (
        DurabilityConfig(wal_dir, fsync=fsync, fault=fault)
    ))
    engine.load(RUN_PROGRAM)
    with engine.batch():
        for i in range(8):
            engine.make("item", owner="ab"[i % 2], v=i)
        engine.make("owner", name="a")
    return engine, stats


def _wal_bytes(wal_dir):
    return [(path.name, path.read_bytes())
            for path in sorted(wal_dir.glob("*.wal"))]


class TestGroupCommit:
    """One ``run()`` is one commit unit under ``batch``: same frames,
    one fsync, and a crash inside it still lands on a firing boundary."""

    @pytest.mark.parametrize("fsync", FSYNC)
    def test_one_run_is_one_fsync_and_the_same_bytes(self, fsync, tmp_path):
        engine, stats = _loaded(tmp_path / "run", fsync)
        appends = stats.counters["wal_appends"]
        fsyncs = stats.counters.get("wal_fsyncs", 0)
        fired = engine.run()
        assert fired >= 16
        appended = stats.counters["wal_appends"] - appends
        assert appended > 2 * fired  # f + e per firing, d for each make
        assert stats.counters.get("wal_fsyncs", 0) - fsyncs == {
            "off": 0, "batch": 1, "always": appended,
        }[fsync]
        # Firing by firing, outside any scope and never synced: the
        # policy and the scope change when fsync is called, not a byte.
        stepped, _ = _loaded(tmp_path / "step")
        while stepped.step() is not None:
            pass
        assert _wal_bytes(tmp_path / "run") == _wal_bytes(tmp_path / "step")

    def test_run_parallel_is_one_fsync(self, tmp_path):
        engine, stats = _loaded(tmp_path, "batch")
        fsyncs = stats.counters["wal_fsyncs"]
        assert engine.run_parallel().fired >= 16
        assert stats.counters["wal_fsyncs"] - fsyncs == 1
        engine.close()

    @pytest.mark.parametrize("fsync", ["batch", "always"])
    def test_crash_at_any_append_of_a_run_recovers_to_a_firing_boundary(
            self, fsync, tmp_path):
        probe, stats = _loaded(tmp_path / "probe")
        setup = stats.counters["wal_appends"]
        total = probe.run()
        appended = stats.counters["wal_appends"] - setup
        boundaries = set()
        for nth in range(1, appended + 1):
            wal_dir = tmp_path / f"crash-{nth}"
            fault = FaultInjector(
                crash_at={"wal.append.before": setup + nth}
            )
            durable, _ = _loaded(wal_dir, fsync, fault)
            synced = fault.counts.get("wal.fsync", 0)
            with pytest.raises(SimulatedCrash):
                durable.run()
            # The dead process synced nothing on its way out of the
            # scope; ``always`` had synced each record it did append.
            assert fault.counts.get("wal.fsync", 0) - synced == (
                nth - 1 if fsync == "always" else 0
            )
            recovered = RuleEngine.recover(wal_dir, durability=False)
            completed = recovered.recovery_report.replayed_firings
            boundaries.add(completed)
            reference, _ = _loaded()
            for _ in range(completed):
                reference.step()
            reference.tracer.output.clear()
            _assert_equal_state(recovered, reference)
        assert boundaries == set(range(total))
