"""Tests for the parallel firing cycle (the DIPS §8.1 execution model)."""

import pytest

from repro import RuleEngine
from repro.dips import DipsMatcher
from repro.durability import DurabilityConfig
from repro.durability.wal import (
    FORMAT_VERSION, encode_record, scan_segment,
)
from repro.match import NaiveMatcher, matcher_name
from repro.rete import ReteNetwork

MATCHERS = [ReteNetwork, NaiveMatcher, DipsMatcher]

# Scalar rules, a set-oriented rule with set-modify, writes, and a
# mutual-invalidation dedup workload (the §8.1 conflict case) in one
# program: every validation branch of the cycle is exercised.
PROGRAM = """
(literalize emp name dept salary)
(literalize dept name budget)
(literalize note text)
(literalize rec key serial)
(p promote
  { [emp ^dept <d> ^salary < 9] <E> }
  (dept ^name <d> ^budget > 100)
  -->
  (set-modify <E> ^salary 9)
  (write promoted <d>))
(p tally
  (emp ^salary 9 ^name <n>)
  -(note ^text <n>)
  -->
  (make note ^text <n>)
  (write tally <n>))
(p dedup
  (rec ^key <k> ^serial <s>)
  { (rec ^key <k> ^serial < <s>) <Old> }
  -->
  (remove <Old>))
"""


def seed(engine):
    with engine.batch():
        for index in range(6):
            engine.make("emp", name=f"e{index}",
                        dept=f"d{index % 2}", salary=index)
        engine.make("dept", name="d0", budget=200)
        engine.make("dept", name="d1", budget=150)
        for serial in range(4):
            engine.make("rec", key="dup", serial=serial)

TUPLE_DEDUP = """
(literalize rec key serial)
(p dedup
  (rec ^key <k> ^serial <s>)
  { (rec ^key <k> ^serial < <s>) <Old> }
  -->
  (remove <Old>))
"""

SET_DEDUP = """
(literalize rec key serial)
(p dedup
  { [rec ^key <k>] <R> }
  :scalar (<k>)
  :test ((count <R>) > 1)
  -->
  (bind <first> true)
  (foreach <R> descending
    (if (<first> == true)
      (bind <first> false)
     else
      (remove <R>))))
"""


def feed(engine, copies):
    for serial in range(copies):
        engine.make("rec", key="dup", serial=serial)


class TestMutualInvalidation:
    def test_tuple_instantiations_conflict(self):
        engine = RuleEngine()
        engine.load(TUPLE_DEDUP)
        feed(engine, 5)
        cycles, fired, conflicted, abandoned = engine.run_parallel(
            max_cycles=10
        )
        # 10 pair instantiations existed; most were invalidated by
        # earlier firings of the same cycle — the paper's criticism.
        assert conflicted > 0
        assert abandoned == 0
        assert len(engine.wm) == 1

    def test_set_instantiation_never_conflicts(self):
        engine = RuleEngine()
        engine.load(SET_DEDUP)
        feed(engine, 5)
        cycles, fired, conflicted, abandoned = engine.run_parallel(
            max_cycles=10
        )
        assert (fired, conflicted, abandoned) == (1, 0, 0)
        assert len(engine.wm) == 1

    def test_disjoint_instantiations_all_fire(self):
        engine = RuleEngine()
        engine.load(
            """
            (literalize task id state)
            (p start { (task ^state todo) <T> } --> (modify <T> ^state run))
            """
        )
        for index in range(4):
            engine.make("task", id=index, state="todo")
        fired, conflicted, abandoned = engine.parallel_cycle()
        assert (fired, conflicted, abandoned) == (4, 0, 0)
        assert len(engine.wm.find("task", state="run")) == 4


class TestCycleMechanics:
    def test_quiescence(self):
        engine = RuleEngine()
        engine.add_rule("(p r (a) --> (write x))")
        assert engine.run_parallel() == (0, 0, 0, 0)

    def test_halt_stops_the_cycle(self):
        engine = RuleEngine()
        engine.add_rule("(p r (a ^n <n>) --> (halt))")
        engine.make("a", n=1)
        engine.make("a", n=2)
        fired, conflicted, abandoned = engine.parallel_cycle()
        assert fired == 1  # halt took effect before the second firing
        assert abandoned == 0

    def test_soi_version_guard(self):
        """An SOI changed by an earlier same-cycle firing is a conflict."""
        engine = RuleEngine()
        engine.load(
            """
            (literalize item v)
            (literalize note text)
            (literalize go)
            (p shrink (go) { [item] <S> } :test ((count <S>) > 1)
              -->
              (foreach <S> descending (remove <S>)))
            (p watch { [item] <S> } :test ((count <S>) > 1)
              -->
              (make note ^text saw))
            """
        )
        engine.make("item", v=1)
        engine.make("item", v=2)
        engine.make("go")  # most recent: shrink dominates the cycle
        fired, conflicted, abandoned = engine.parallel_cycle()
        # shrink fires first and empties the items; watch's SOI was
        # destroyed mid-cycle -> conflict, exactly the §8.1 case.
        assert fired == 1
        assert conflicted == 1
        assert abandoned == 0
        assert not engine.wm.find("note")

    def test_matches_sequential_end_state(self):
        # For this independent workload parallel and sequential agree.
        def build():
            engine = RuleEngine()
            engine.load(
                """
                (literalize n v)
                (p double { (n ^v <v>) <N> } -(done)
                  --> (modify <N> ^v (<v> * 2)) (make done))
                """
            )
            engine.make("n", v=21)
            return engine

        sequential = build()
        sequential.run(limit=10)
        parallel = build()
        parallel.run_parallel(max_cycles=10)
        assert sorted(w.get("v") for w in sequential.wm.of_class("n")) \
            == sorted(w.get("v") for w in parallel.wm.of_class("n"))


class TestCycleAccounting:
    """fired + conflicted + abandoned == snapshot, on every matcher."""

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_conflict_accounting(self, matcher_cls):
        engine = RuleEngine(matcher=matcher_cls())
        engine.load(PROGRAM)
        seed(engine)
        snapshot = len(
            engine.conflict_set.eligible_snapshot(engine.strategy)
        )
        fired, conflicted, abandoned = engine.parallel_cycle()
        assert fired + conflicted + abandoned == snapshot
        assert conflicted > 0  # dedup guarantees invalidations
        assert abandoned == 0
        engine.close()

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_abandoned_accounting(self, matcher_cls):
        engine = RuleEngine(matcher=matcher_cls(), on_error="skip")
        engine.load(
            """
            (literalize item n)
            (p poison (item ^n 1) --> (call explode))
            (p fine (item ^n { <n> > 1 }) --> (write ok <n>))
            """
        )

        def boom(*args):
            raise ValueError("boom")

        engine.register_function("explode", boom)
        engine.make("item", n=1)
        engine.make("item", n=2)
        fired, conflicted, abandoned = engine.parallel_cycle()
        assert (fired, conflicted, abandoned) == (1, 0, 1)
        assert len(engine.dead_letters) == 1
        engine.close()

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_halt_mid_cycle_skips_the_sum_assert(self, matcher_cls):
        engine = RuleEngine(matcher=matcher_cls())
        engine.load("(p r (a ^n <n>) --> (halt))")
        engine.make("a", n=1)
        engine.make("a", n=2)
        engine.make("a", n=3)
        fired, conflicted, abandoned = engine.parallel_cycle()
        # halt stops the cycle: exactly one firing, the rest of the
        # snapshot is neither fired nor conflicted nor abandoned.
        assert (fired, conflicted, abandoned) == (1, 0, 0)
        engine.close()

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_soi_version_bump_between_snapshot_and_fire(self, matcher_cls):
        engine = RuleEngine(matcher=matcher_cls())
        engine.load(
            """
            (literalize item v)
            (literalize note text)
            (literalize go)
            (p shrink (go) { [item] <S> } :test ((count <S>) > 1)
              -->
              (foreach <S> descending (remove <S>)))
            (p watch { [item] <S> } :test ((count <S>) > 1)
              -->
              (make note ^text saw))
            """
        )
        engine.make("item", v=1)
        engine.make("item", v=2)
        engine.make("go")
        fired, conflicted, abandoned = engine.parallel_cycle()
        # shrink empties the set mid-cycle; watch's SOI version moved
        # between snapshot and fire -> conflicted, never fired.
        assert (fired, conflicted, abandoned) == (1, 1, 0)
        assert not engine.wm.find("note")
        engine.close()


def canonical_wm(engine):
    return sorted(
        (wme.wme_class, wme.time_tag, tuple(sorted(wme.as_dict().items())))
        for wme in engine.wm
    )


def canonical_firings(engine):
    return [
        (record.cycle, record.rule_name, record.time_tags,
         record.makes, record.removes, record.modifies,
         record.writes, tuple(record.touched_ops), record.outcome)
        for record in engine.tracer.firings
    ]


def wal_bytes(wal_dir):
    import os

    from repro.durability.wal import SEGMENT_SUFFIX

    chunks = []
    for name in sorted(os.listdir(wal_dir)):
        if name.endswith(SEGMENT_SUFFIX):
            with open(os.path.join(wal_dir, name), "rb") as handle:
                chunks.append(handle.read())
    return b"".join(chunks)


def run_program(matcher_cls, wal_dir=None):
    """Run PROGRAM with ``run_parallel``; returns the engine still open."""
    durability = (
        DurabilityConfig(wal_dir, fsync="off") if wal_dir else None
    )
    engine = RuleEngine(matcher=matcher_cls(), durability=durability)
    engine.load(PROGRAM)
    seed(engine)
    result = engine.run_parallel(max_cycles=30)
    return engine, result


def observed(engine, result):
    return (
        result,
        canonical_firings(engine),
        list(engine.tracer.output),
        canonical_wm(engine),
    )


class TestMatcherIndependence:
    """The cycle reads only the conflict set: every matcher runs it alike,
    down to the firing records, the output and the WAL bytes."""

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_parallel_run_matches_rete(self, matcher_cls):
        reference, reference_result = run_program(ReteNetwork)
        engine, result = run_program(matcher_cls)
        assert observed(engine, result) == observed(
            reference, reference_result
        )
        cycles, fired, conflicted, abandoned = result
        assert fired > 0 and conflicted > 0 and abandoned == 0
        engine.close()
        reference.close()

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_wal_bytes_match_rete(self, matcher_cls, tmp_path):
        reference_dir = str(tmp_path / "rete")
        engine_dir = str(tmp_path / "other")
        reference, _ = run_program(ReteNetwork, wal_dir=reference_dir)
        engine, _ = run_program(matcher_cls, wal_dir=engine_dir)
        reference.close()
        engine.close()
        # The session-meta record names the matcher; every record after
        # it (literalize, rules, deltas, firings) agrees byte for byte.
        tails = []
        for wal_dir, name in ((engine_dir, matcher_name(matcher_cls())),
                              (reference_dir, "rete")):
            data = wal_bytes(wal_dir)
            payloads, _, damage = scan_segment(data)
            assert damage is None
            assert payloads[0] == {"k": "m", "v": FORMAT_VERSION,
                                   "matcher": name, "strategy": "lex"}
            assert any(payload["k"] == "f" for payload in payloads)
            tails.append(data[len(encode_record(payloads[0])):])
        assert tails[0] == tails[1]


class TestParallelRunRecovery:
    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_recovered_state_matches_live(self, matcher_cls, tmp_path):
        engine, _ = run_program(matcher_cls, wal_dir=str(tmp_path))
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert type(recovered.matcher) is matcher_cls
        assert canonical_wm(recovered) == canonical_wm(engine)
        # Refraction survives: nothing the parallel run fired re-fires.
        assert recovered.run_parallel(max_cycles=30) == (
            engine.run_parallel(max_cycles=30)
        )
        assert canonical_wm(recovered) == canonical_wm(engine)
        engine.close()
        recovered.close()
