"""Unit tests for transactional firings and fault containment.

Covers the :mod:`repro.engine.reliability` layers one by one: the
DeltaBatch savepoint journal, working-memory transactions, error
policy parsing and decisions, atomic rollback under ``halt``,
skip/retry/quarantine containment, the dead-letter list, the
quarantine registry (including :meth:`ConflictSet.current`), run
watchdogs, and ``reset()`` semantics.  Cross-matcher and durability
interactions live in ``tests/properties/test_rhs_fault_injection.py``
and ``tests/durability/test_reliability_recovery.py``.
"""

import time

import pytest

from repro import RuleEngine
from repro.engine.stats import MatchStats
from repro.engine.reliability import (
    DeadLetter,
    HaltPolicy,
    LivelockDetector,
    QuarantinePolicy,
    RetryPolicy,
    SkipPolicy,
    content_identity,
    policy_named,
)
from repro.errors import EngineError, FiringError, LivelockError
from repro.wm.events import ADD, REMOVE, DeltaBatch
from repro.wm.memory import WorkingMemory

from tests.conftest import cs_state


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def full_state(engine):
    return (
        wm_state(engine),
        cs_state(engine),
        engine.wm.latest_time_tag,
        engine.halted,
        tuple(engine.output),
    )


class TestDeltaBatchSavepoints:
    def test_mark_and_rewind_restores_journal(self):
        batch = DeltaBatch()
        batch.record(ADD, "w1")
        mark = batch.mark()
        batch.record(ADD, "w2")
        batch.record(REMOVE, "w3")
        undone = batch.rewind(mark)
        assert undone == [(REMOVE, "w3"), (ADD, "w2")]
        assert [(e.sign, e.wme) for e in batch.events()] == [(ADD, "w1")]
        assert batch.submitted == 1

    def test_rewind_restores_tombstoned_cancel(self):
        batch = DeltaBatch()
        batch.record(ADD, "w1")
        mark = batch.mark()
        # A remove cancelling a pre-mark add tombstones it in place;
        # rewinding must resurrect the add.
        batch.record(REMOVE, "w1")
        assert len(batch) == 0
        undone = batch.rewind(mark)
        assert undone == [(REMOVE, "w1")]
        assert [(e.sign, e.wme) for e in batch.events()] == [(ADD, "w1")]
        assert batch.coalesced == 0

    def test_rewind_of_intra_mark_cancel_pair(self):
        batch = DeltaBatch()
        mark = batch.mark()
        batch.record(ADD, "w1")
        batch.record(REMOVE, "w1")
        undone = batch.rewind(mark)
        # The cancel undoes to its "-", then the add to its "+".
        assert undone == [(REMOVE, "w1"), (ADD, "w1")]
        assert batch.events() == []
        assert batch.submitted == 0

    def test_rewind_to_zero_is_empty_batch(self):
        batch = DeltaBatch()
        batch.record(ADD, "a")
        batch.record(ADD, "b")
        batch.rewind(0)
        assert batch.events() == []
        assert len(batch) == 0


class TestWorkingMemoryTransactions:
    def _wm(self):
        wm = WorkingMemory()
        wm.registry.literalize("item", ["n"])
        return wm

    def test_commit_delivers_staged_effects(self):
        wm = self._wm()
        seen = []
        wm.attach(lambda e: seen.append((e.sign, e.wme.time_tag)))
        savepoint = wm.begin_transaction()
        wme = wm.make("item", n=1)
        assert seen == []  # staged, not delivered
        wm.commit_transaction(savepoint)
        assert seen == [(ADD, wme.time_tag)]
        assert len(wm) == 1

    def test_rollback_restores_multiset_and_tag_counter(self):
        wm = self._wm()
        keep = wm.make("item", n=0)
        tag_before = wm.latest_time_tag
        seen = []
        wm.attach(lambda e: seen.append(e))
        savepoint = wm.begin_transaction()
        wm.make("item", n=1)
        wm.remove(keep)
        wm.rollback_transaction(savepoint)
        assert seen == []
        assert sorted(w.time_tag for w in wm) == [keep.time_tag]
        assert wm.latest_time_tag == tag_before

    def test_rollback_inside_outer_batch_keeps_outer_deltas(self):
        wm = self._wm()
        delivered = []
        wm.attach(lambda e: delivered.append(e.sign),
                  on_batch=lambda evs: delivered.extend(
                      e.sign for e in evs))
        with wm.batch():
            wm.make("item", n=1)
            savepoint = wm.begin_transaction()
            wm.make("item", n=2)
            wm.rollback_transaction(savepoint)
        assert delivered == [ADD]
        assert [w.as_dict()["n"] for w in wm] == [1]

    def test_fingerprint_tracks_rollback(self):
        wm = self._wm()
        wm.enable_fingerprint()
        wm.make("item", n=1)
        before = wm.content_fingerprint()
        savepoint = wm.begin_transaction()
        wm.make("item", n=2)
        wm.rollback_transaction(savepoint)
        assert wm.content_fingerprint() == before
        # And the incremental fingerprint agrees with a full rescan.
        fresh = self._wm()
        fresh.make("item", n=1)
        assert wm.content_fingerprint() == fresh.content_fingerprint()


class TestPolicyParsing:
    def test_named_forms(self):
        assert isinstance(policy_named("halt"), HaltPolicy)
        assert isinstance(policy_named("skip"), SkipPolicy)
        retry = policy_named("retry:5:0.25:quarantine:2")
        assert isinstance(retry, RetryPolicy)
        assert retry.attempts == 5
        assert retry.backoff == 0.25
        assert isinstance(retry.then, QuarantinePolicy)
        assert retry.then.after == 2
        assert policy_named("quarantine:7").after == 7

    def test_policy_objects_pass_through(self):
        policy = SkipPolicy()
        assert policy_named(policy) is policy

    def test_malformed_specs_raise(self):
        for spec in ("nope", "retry:x", "quarantine:1:2", "halt:1", 42):
            with pytest.raises(EngineError):
                policy_named(spec)

    def test_retry_decides_then_falls_back(self):
        policy = RetryPolicy(2, backoff=0.5)
        assert policy.decide(None, 1, 1) == ("retry", 0.5)
        assert policy.decide(None, 2, 2) == ("retry", 1.0)  # exponential
        assert policy.decide(None, 3, 3) == ("skip", 0.0)

    def test_quarantine_skips_until_threshold(self):
        policy = QuarantinePolicy(after=2)
        assert policy.decide(None, 1, 1) == ("skip", 0.0)
        assert policy.decide(None, 1, 2) == ("quarantine", 0.0)

    def test_bad_constructor_arguments(self):
        with pytest.raises(EngineError):
            RetryPolicy(0)
        with pytest.raises(EngineError):
            QuarantinePolicy(0)
        with pytest.raises(EngineError):
            LivelockDetector(0)


PROGRAM = """
(literalize item n)
(literalize out n)
(p poison (item ^n 1) --> (make out ^n 10) (call explode) (make out ^n 11))
(p fine (item ^n { <n> > 1 }) --> (make out ^n <n>))
"""


def _engine(on_error="halt", **kwargs):
    engine = RuleEngine(on_error=on_error, **kwargs)
    engine.load(PROGRAM)
    return engine


def _always_boom(*args):
    raise ValueError("boom")


class TestAtomicHalt:
    def test_rollback_is_byte_identical(self):
        engine = _engine()
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        before = full_state(engine)
        with pytest.raises(FiringError) as excinfo:
            engine.run()
        assert full_state(engine) == before
        error = excinfo.value
        assert error.rule_name == "poison"
        assert error.stage == "rhs"
        assert error.action_path == (1,)
        assert error.action_index == 1
        assert isinstance(error.__cause__, ValueError)

    def test_halt_restores_refraction_stamp(self):
        engine = _engine()
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        with pytest.raises(FiringError):
            engine.run()
        (inst,) = engine.conflict_set.instantiations()
        assert inst.eligible()  # the firing never happened

    def test_fixed_fault_fires_cleanly_after_halt(self):
        engine = _engine()
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")

        engine.register_function("explode", flaky)
        engine.make("item", n=1)
        with pytest.raises(FiringError):
            engine.run()
        fired = engine.run()
        assert fired == 1
        assert sorted(w.as_dict()["n"] for w in engine.wm.of_class("out")) \
            == [10, 11]

    def test_halt_action_rolls_back_halted_flag(self):
        engine = RuleEngine()
        engine.load("""
(literalize item n)
(p stopper (item ^n 1) --> (halt) (call explode))
""")
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        with pytest.raises(FiringError):
            engine.run()
        assert engine.halted is False

    def test_uncontained_exceptions_escape_raw(self):
        engine = _engine()

        def interrupt(*args):
            raise KeyboardInterrupt()

        engine.register_function("explode", interrupt)
        engine.make("item", n=1)
        before = wm_state(engine)
        with pytest.raises(KeyboardInterrupt):
            engine.run()
        # BaseException still unwinds the staged transaction... but is
        # never converted into a FiringError or contained by a policy.
        assert wm_state(engine) == before
        assert engine.dead_letters == []


class TestSkipAndDeadLetters:
    def test_skip_dead_letters_and_continues(self):
        engine = _engine(on_error="skip")
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        engine.make("item", n=2)
        fired = engine.run()
        assert fired == 1  # only `fine`
        assert [w.as_dict()["n"] for w in engine.wm.of_class("out")] == [2]
        (letter,) = engine.dead_letters
        assert letter.rule_name == "poison"
        assert letter.outcome == "skip"
        assert letter.action_path == (1,)
        assert "ValueError: boom" in letter.error
        assert "poison" in repr(letter)

    def test_skip_consumes_the_refraction_stamp(self):
        engine = _engine(on_error="skip")
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        engine.run()
        poison = [i for i in engine.conflict_set.instantiations()
                  if i.rule.name == "poison"]
        assert poison and not poison[0].eligible()
        assert engine.run() == 0  # not re-selected forever

    def test_per_rule_policy_overrides_default(self):
        engine = _engine(on_error="halt")
        engine.set_error_policy("skip", rule="poison")
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        engine.make("item", n=2)
        assert engine.run() == 1
        assert len(engine.dead_letters) == 1

    def test_trace_record_carries_outcome(self):
        engine = _engine(on_error="skip", stats=MatchStats())
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        engine.run()
        aborted = [r for r in engine.tracer.firings if r.aborted]
        assert aborted
        assert aborted[-1].outcome == "skip"
        assert "boom" in aborted[-1].error
        assert engine.stats.counters.get("firing_aborts", 0) >= 1
        assert engine.stats.counters.get("dead_letters", 0) == 1


class TestRetry:
    def test_retry_converges_on_transient_fault(self):
        engine = _engine(on_error="retry:3")
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ValueError("transient")

        engine.register_function("explode", flaky)
        engine.make("item", n=1)
        fired = engine.run()
        assert fired == 1
        assert calls["n"] == 3
        outcomes = [r.outcome for r in engine.tracer.firings]
        assert outcomes == ["retry", "retry", "fired"]
        assert engine.dead_letters == []

    def test_retry_budget_spent_falls_back_to_skip(self):
        engine = _engine(on_error="retry:2")
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        assert engine.run() == 0
        (letter,) = engine.dead_letters
        assert letter.attempts == 3  # 1 initial + 2 retries
        assert letter.outcome == "skip"

    def test_retry_backoff_sleeps(self, monkeypatch):
        import repro.engine.reliability as reliability

        slept = []
        monkeypatch.setattr(reliability.time, "sleep", slept.append)
        engine = _engine(on_error="retry:2:0.1")
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        engine.run()
        assert slept == [0.1, 0.2]


class TestQuarantine:
    def _poison_engine(self, after):
        engine = RuleEngine(on_error=f"quarantine:{after}")
        engine.load("""
(literalize item n)
(literalize out n)
(p bad (item ^n <n>) --> (call explode))
(p good (item ^n <n>) --> (make out ^n <n>))
""")
        engine.register_function("explode", _always_boom)
        return engine

    def test_rule_detaches_after_k_failures(self):
        engine = self._poison_engine(2)
        for n in (1, 2, 3):
            engine.make("item", n=n)
        fired = engine.run()
        assert fired == 3  # `good` three times
        assert set(engine.quarantined_rules()) == {"bad"}
        assert engine.conflict_set.parked_rules() == ["bad"]
        assert len(engine.dead_letters) == 2
        assert engine.dead_letters[-1].outcome == "quarantine"

    def test_quarantined_rule_keeps_matching_while_parked(self):
        engine = self._poison_engine(1)
        engine.make("item", n=1)
        engine.run()
        engine.make("item", n=2)
        engine.run()
        # The new match parked straight into the pool.
        parked = engine.conflict_set.parked_of_rule("bad")
        assert len(parked) == 2

    def test_release_readmits_instantiations(self):
        engine = self._poison_engine(1)
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run()
        released = engine.release_rule("bad")
        # Both matches return — the dead-lettered n=1 one (ineligible,
        # its stamp stays consumed) and the never-attempted n=2 one.
        assert released == 2
        assert not engine.quarantined_rules()
        bad = [i for i in engine.conflict_set.instantiations()
               if i.rule.name == "bad"]
        assert sorted(i.eligible() for i in bad) == [False, True]

    def test_conflict_set_current_sees_only_live(self):
        engine = self._poison_engine(1)
        engine.make("item", n=1)
        engine.run()
        conflict_set = engine.conflict_set
        (parked,) = conflict_set.parked_of_rule("bad")
        assert conflict_set.current(parked.identity()) is None
        (live,) = [i for i in conflict_set.instantiations()
                   if i.rule.name == "good"]
        assert conflict_set.current(live.identity()) is live

    def test_retract_reaches_parked_pool(self):
        engine = self._poison_engine(1)
        wme = engine.make("item", n=1)
        engine.run()
        engine.make("item", n=2)
        engine.remove(wme)
        assert len(engine.conflict_set.parked_of_rule("bad")) == 1


class TestWatchdogs:
    def _counter_engine(self):
        engine = RuleEngine()
        engine.load("""
(literalize tick n)
(p advance (tick ^n { <n> < 50 }) --> (modify 1 ^n (<n> + 1)))
""")
        engine.make("tick", n=0)
        return engine

    def test_firing_limit(self):
        engine = self._counter_engine()
        fired = engine.run(limit=5)
        assert fired == 5
        assert engine.last_run_report.reason == "limit"

    def test_wall_clock_budget(self):
        engine = self._counter_engine()
        fired = engine.run(wall_clock=0.0)
        assert fired == 0
        assert engine.last_run_report.reason == "wall_clock"

    def test_quiescent_report(self):
        engine = self._counter_engine()
        engine.run()
        report = engine.last_run_report
        assert report.reason == "quiescent"
        assert report.fired == 50
        assert "quiescent" in repr(report)

    def _spinner_engine(self):
        engine = RuleEngine()
        # Rewrites the same WME to the same content: refire-on-change
        # keeps it eligible, and content never advances — a livelock.
        engine.load("""
(literalize flag v)
(p spin (flag ^v on) --> (modify 1 ^v on))
""")
        engine.make("flag", v="on")
        return engine

    def test_livelock_detector_stops(self):
        engine = self._spinner_engine()
        fired = engine.run(limit=1000, livelock_threshold=4)
        assert fired < 1000
        report = engine.last_run_report
        assert report.reason == "livelock"
        assert report.livelock_rule == "spin"
        assert "livelocked" in repr(report)

    def test_livelock_detector_raises_on_request(self):
        engine = self._spinner_engine()
        with pytest.raises(LivelockError):
            engine.run(livelock_threshold=4, on_livelock="raise")

    def test_progressing_run_is_not_flagged(self):
        engine = self._counter_engine()
        fired = engine.run(livelock_threshold=2)
        assert fired == 50
        assert engine.last_run_report.reason == "quiescent"

    def test_bad_on_livelock_value(self):
        engine = self._counter_engine()
        with pytest.raises(EngineError):
            engine.run(livelock_threshold=2, on_livelock="explode")

    def test_parallel_budgets(self):
        engine = self._counter_engine()
        cycles, fired, _, _ = engine.run_parallel(firing_budget=3)
        assert fired >= 3
        assert engine.last_run_report.reason == "limit"
        engine = self._counter_engine()
        cycles, fired, _, _ = engine.run_parallel(wall_clock=0.0)
        assert (cycles, fired) == (0, 0)
        assert engine.last_run_report.reason == "wall_clock"

    def test_parallel_livelock_detector(self):
        engine = self._spinner_engine()
        cycles, fired, _, _ = engine.run_parallel(
            max_cycles=1000, livelock_threshold=4
        )
        assert cycles < 1000
        assert engine.last_run_report.reason == "livelock"
        assert engine.last_run_report.livelock_rule == "(parallel cycle)"

    def test_expired_deadline_stops_before_firing(self):
        engine = self._counter_engine()
        fired = engine.run(deadline=time.monotonic() - 1.0)
        assert fired == 0
        assert engine.last_run_report.reason == "deadline"

    def test_future_deadline_lets_the_run_quiesce(self):
        engine = self._counter_engine()
        fired = engine.run(deadline=time.monotonic() + 60.0)
        assert fired == 50
        assert engine.last_run_report.reason == "quiescent"

    def test_parallel_deadline(self):
        engine = self._counter_engine()
        cycles, fired, _, _ = engine.run_parallel(
            deadline=time.monotonic() - 1.0
        )
        assert (cycles, fired) == (0, 0)
        assert engine.last_run_report.reason == "deadline"


class TestContentIdentity:
    def test_identity_ignores_time_tags(self):
        engine = RuleEngine()
        engine.load("""
(literalize item n)
(p r (item ^n <n>) --> (make item ^n <n>))
""")
        engine.make("item", n=1)
        (first,) = engine.conflict_set.instantiations()
        identity = content_identity(first)
        engine.reset()
        engine.make("item", n=1)  # fresh tag, same content
        (second,) = engine.conflict_set.instantiations()
        assert content_identity(second) == identity


class TestReset:
    def test_reset_clears_reliability_state(self):
        engine = RuleEngine(on_error="quarantine:1")
        engine.load(PROGRAM)
        engine.register_function("explode", _always_boom)
        engine.make("item", n=1)
        engine.run()
        assert set(engine.quarantined_rules()) == {"poison"}
        assert engine.dead_letters
        engine.reset()
        assert not engine.quarantined_rules()
        assert engine.dead_letters == []
        assert engine.conflict_set.parked_rules() == []
        assert len(engine.wm) == 0
        assert engine.cycle_count == 0
        # The rule base survives; a fresh scenario works.
        engine.register_function("explode", lambda *a: None)
        engine.make("item", n=1)
        assert engine.run() == 1

    def test_reset_refuses_inside_open_batch(self):
        engine = RuleEngine()
        engine.load(PROGRAM)
        with pytest.raises(EngineError):
            with engine.batch():
                engine.reset()


class TestDeadLetterRepr:
    def test_empty_action_path_prints_dash(self):
        letter = DeadLetter("r", 1, 1, (), "E", None, "skip")
        assert "action -" in repr(letter)
