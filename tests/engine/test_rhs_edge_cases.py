"""RHS edge cases: ordinals inside foreach, halt placement, snapshots."""

import pytest

from repro import RuleEngine
from repro.errors import EngineError


def engine_with(program):
    engine = RuleEngine()
    engine.load(program)
    return engine


class TestOrdinalTargets:
    def test_ordinal_to_scalar_ce_in_set_rule(self):
        engine = engine_with(
            """
            (p done { (ctl ^state run) <C> } [item]
              -->
              (modify 1 ^state finished))
            """
        )
        engine.make("ctl", state="run")
        engine.make("item")
        engine.run(limit=2)
        assert engine.wm.find("ctl", state="finished")

    def test_ordinal_to_set_ce_inside_foreach(self):
        # Inside a CE-foreach the set CE is narrowed to one member, so
        # an ordinal target resolves.
        engine = engine_with(
            """
            (p tag { [item ^v <v>] <S> }
              -->
              (foreach <S> ascending
                (modify 1 ^v 0)))
            """
        )
        engine.make("item", v=1)
        engine.make("item", v=2)
        engine.run(limit=2)
        assert len(engine.wm.find("item", v=0)) == 2

    def test_ordinal_out_of_range(self):
        engine = engine_with("(p r (a) --> (remove 5))")
        engine.make("a")
        with pytest.raises(EngineError):
            engine.run(limit=1)

    def test_remove_target_unknown_var(self):
        engine = engine_with("(p r (a) --> (remove <nope>))")
        engine.make("a")
        with pytest.raises(EngineError):
            engine.run(limit=1)


class TestSnapshotSemantics:
    def test_foreach_iterates_fire_time_relation(self):
        """Mid-firing WM changes do not disturb the iteration (§6)."""
        engine = engine_with(
            """
            (p grow [seed ^v <v>]
              -->
              (foreach <v> ascending
                (make sprout ^from <v>)))
            """
        )
        engine.make("seed", v=1)
        engine.make("seed", v=2)
        engine.run(limit=1)
        # The makes during iteration did not add iterations.
        assert len(engine.wm.find("sprout")) == 2

    def test_set_modify_snapshot(self):
        # set-modify's new WMEs re-enter the SOI but do not get
        # re-modified within the same firing.
        engine = engine_with(
            """
            (p bump { [item ^n <n>] <S> }
              :test ((count <S>) == 2)
              -->
              (set-modify <S> ^n 9))
            """
        )
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run(limit=1)
        assert len(engine.wm.find("item", n=9)) == 2


class TestHaltPlacement:
    def test_halt_finishes_current_rhs(self):
        engine = engine_with(
            "(p r (a) --> (halt) (write after-halt))"
        )
        engine.make("a")
        engine.run()
        assert engine.output == ["after-halt"]
        assert engine.halted

    def test_halt_inside_foreach(self):
        engine = engine_with(
            """
            (p r [item ^v <v>]
              -->
              (foreach <v> ascending
                (write <v>)
                (halt)))
            (p other (item) --> (write never))
            """
        )
        engine.make("item", v=1)
        engine.make("item", v=2)
        engine.run()
        # The foreach completes (both values) but no further rule fires.
        assert engine.output == ["1", "2"]


class TestWriteEdgeCases:
    def test_write_no_arguments(self):
        engine = engine_with("(p r (a) --> (write))")
        engine.make("a")
        engine.run(limit=1)
        assert engine.output == [""]

    def test_write_float_formatting(self):
        engine = engine_with(
            "(p r (a ^x <x>) --> (write (<x> / 2)))"
        )
        engine.make("a", x=5)
        engine.run(limit=1)
        assert engine.output == ["2.5"]


class TestNestedForeachTargets:
    def test_set_remove_in_narrowed_scope(self):
        """set-remove inside foreach removes only the current group."""
        engine = engine_with(
            """
            (p purge-first { [item ^g <g>] <S> }
              -->
              (bind <done> false)
              (foreach <g> ascending
                (if (<done> == false)
                  (set-remove <S>)
                  (bind <done> true))))
            """
        )
        engine.make("item", g="a")
        engine.make("item", g="a")
        engine.make("item", g="b")
        engine.run(limit=1)
        remaining = [w.get("g") for w in engine.wm.find("item")]
        assert remaining == ["b"]


class TestMaintainedAggregates:
    """RHS aggregates outside a foreach are read from γ-memory."""

    def test_count_after_set_remove_is_the_fire_time_count(self):
        # The firing is atomic: the removals stay staged until the RHS
        # returns, so the live γ-memory still is the fire-time snapshot.
        engine = engine_with(
            """
            (p drop { [item ^v <v>] <S> }
              -->
              (set-remove <S>)
              (write (count <S>) (sum <S> ^v)))
            """
        )
        for v in (1, 2, 3):
            engine.make("item", v=v)
        engine.run()
        assert engine.output == ["3 6"]
        assert not engine.wm.find("item")

    def test_aggregate_inside_foreach_is_over_the_narrowed_group(self):
        engine = engine_with(
            """
            (p per-group { [item ^g <g> ^v <v>] <S> }
              -->
              (write all (count <S>) (sum <S> ^v))
              (foreach <g> ascending
                (write <g> (count <S>) (sum <S> ^v))))
            """
        )
        for g, v in (("a", 1), ("a", 2), ("b", 10)):
            engine.make("item", g=g, v=v)
        engine.run(limit=1)
        assert engine.output == ["all 3 13", "a 2 3", "b 1 10"]

    @pytest.mark.parametrize("policy", ["skip", "retry:2", "quarantine:1"])
    def test_unsummable_aggregate_fails_at_fire_time_not_add_rule(
        self, policy
    ):
        engine = RuleEngine(on_error=policy)
        # Neither a sum over a symbol nor one over a CE without ^attr
        # is an add_rule error ...
        engine.load(
            """
            (p symbolic { [item ^sym <s>] <S> } --> (write (sum <S> ^sym)))
            (p bare { [item ^sym <s>] <S> } --> (write (sum <S>)))
            """
        )
        engine.make("item", sym="x")
        engine.run()
        # ... both fail when fired, under the rule's policy.
        assert engine.output == []
        assert sorted(d.rule_name for d in engine.dead_letters) == [
            "bare", "symbolic",
        ]
        assert "non-numeric" in str(
            [d.error for d in engine.dead_letters
             if d.rule_name == "symbolic"]
        )

    def test_retry_after_rollback_reads_the_same_value(self):
        engine = RuleEngine(on_error="retry:2")
        engine.load(
            """
            (p drop { [item ^v <v>] <S> }
              -->
              (set-remove <S>)
              (write (count <S>) (max <S> ^v))
              (call flaky))
            """
        )
        calls = []

        def flaky():
            calls.append(list(engine.output))
            if len(calls) == 1:
                raise RuntimeError("first attempt fails")

        engine.register_function("flaky", flaky)
        for v in (4, 9):
            engine.make("item", v=v)
        engine.run()
        # Both attempts saw the same maintained values; the first one's
        # output was rolled back with its removals.
        assert calls == [["2 9"], ["2 9"]]
        assert engine.output == ["2 9"]

    @pytest.mark.parametrize("matcher", ["rete", "naive"])
    def test_firing_folds_no_token(self, matcher, monkeypatch):
        """(count <S>) over 1 000 tokens costs the firing no add_token:
        through both users of the shared γ-memory."""
        from repro.rete.aggregates import AggregateState

        engine = RuleEngine(matcher=matcher)
        engine.load("(p tally { [item] <S> } --> (write (count <S>)))")
        with engine.batch():
            for _ in range(1000):
                engine.make("item")
        folds = []
        original = AggregateState.add_token
        monkeypatch.setattr(
            AggregateState, "add_token",
            lambda self, token: (folds.append(1), original(self, token)),
        )
        engine.run(limit=1)
        assert engine.output == ["1000"]
        assert folds == []
