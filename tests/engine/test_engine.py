"""Unit tests for the RuleEngine facade and tracing."""

import pytest

from repro import RuleEngine
from repro.errors import RuleError, WorkingMemoryError


class TestProgramLoading:
    def test_load_program(self):
        engine = RuleEngine()
        rules = engine.load(
            """
            (literalize item kind)
            (p r (item ^kind x) --> (write found))
            """
        )
        assert [r.name for r in rules] == ["r"]
        assert engine.wm.registry.is_declared("item")

    def test_literalize_enforced(self):
        engine = RuleEngine()
        engine.literalize("item", "kind")
        with pytest.raises(WorkingMemoryError):
            engine.make("item", other=1)

    def test_add_rule_from_source_or_ast(self):
        from repro.lang.parser import parse_rule

        engine = RuleEngine()
        engine.add_rule("(p a (x) --> (halt))")
        engine.add_rule(parse_rule("(p b (y) --> (halt))"))
        assert set(engine.rules) == {"a", "b"}

    def test_duplicate_rule_name(self):
        engine = RuleEngine()
        engine.add_rule("(p a (x) --> (halt))")
        with pytest.raises(RuleError):
            engine.add_rule("(p a (y) --> (halt))")

    def test_invalid_rule_argument(self):
        engine = RuleEngine()
        with pytest.raises(RuleError):
            engine.add_rule(42)


class TestRunLoop:
    def test_run_until_quiescence(self):
        engine = RuleEngine()
        engine.load(
            """
            (p countdown (n ^v <v> ^v > 0)
              -->
              (modify 1 ^v (<v> - 1)))
            """
        )
        engine.make("n", v=5)
        fired = engine.run()
        assert fired == 5
        assert engine.wm.find("n", v=0)

    def test_run_limit(self):
        engine = RuleEngine()
        engine.load("(p loop (n ^v <v>) --> (modify 1 ^v (<v> + 1)))")
        engine.make("n", v=0)
        assert engine.run(limit=7) == 7

    def test_step_returns_fired_instantiation(self):
        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (write hi))")
        engine.make("item")
        inst = engine.step()
        assert inst.rule.name == "r"
        assert engine.step() is None

    def test_cycle_counter(self):
        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (write hi))")
        engine.make("item")
        engine.make("item")
        engine.run()
        assert engine.cycle_count == 2


class TestTracing:
    def test_firing_records(self):
        engine = RuleEngine()
        engine.load(
            """
            (p batch { [item] <S> }
              -->
              (set-remove <S>)
              (make done))
            """
        )
        for _ in range(4):
            engine.make("item")
        engine.run(limit=2)
        [record] = engine.tracer.firings
        assert record.rule_name == "batch"
        assert record.is_set_oriented
        assert record.token_count == 4
        assert record.removes == 4
        assert record.makes == 1
        assert record.wm_actions == 5

    def test_actions_per_firing_series(self):
        engine = RuleEngine()
        engine.load("(p one (item ^done no) --> (modify 1 ^done yes))")
        for _ in range(3):
            engine.make("item", done="no")
        engine.run()
        assert engine.tracer.actions_per_firing() == [1, 1, 1]
        assert engine.tracer.total_wm_actions() == 3

    def test_output_capture_and_clear(self):
        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (write hello))")
        engine.make("item")
        engine.run()
        assert engine.output == ["hello"]
        engine.tracer.clear()
        assert engine.output == []

    def test_firings_of(self):
        engine = RuleEngine()
        engine.add_rule("(p a (x) --> (write a))")
        engine.add_rule("(p b (y) --> (write b))")
        engine.make("x")
        engine.make("y")
        engine.run()
        assert len(engine.tracer.firings_of("a")) == 1
        assert len(engine.tracer.firings_of("b")) == 1


class TestEngineWithAllMatchers:
    def test_same_behaviour(self, make_engine, matcher_name):
        engine = make_engine(matcher_name)
        engine.load(
            """
            (literalize task state)
            (p advance (task ^state todo) --> (modify 1 ^state done))
            """
        )
        for _ in range(3):
            engine.make("task", state="todo")
        assert engine.run(limit=10) == 3
        assert len(engine.wm.find("task", state="done")) == 3


class TestReset:
    def test_reset_clears_state_but_keeps_rules(self):
        from repro import RuleEngine

        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (write hi) (halt))")
        engine.make("item")
        engine.run()
        assert engine.halted
        engine.reset()
        assert not engine.halted
        assert len(engine.wm) == 0
        assert engine.output == []
        assert engine.conflict_set_size() == 0
        # The same rule base works on fresh data.
        engine.make("item")
        assert engine.run() == 1
        assert engine.output == ["hi"]
