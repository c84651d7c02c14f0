"""Unit tests for RHS execution: actions, foreach, scoping, targets,
and the garbage a firing leaves."""

import gc

import pytest

from repro import RuleEngine
from repro.errors import EngineError


def engine_with(program):
    engine = RuleEngine()
    engine.load(program)
    return engine


class TestClassicActions:
    def test_make_remove_modify(self):
        engine = engine_with(
            """
            (p step (task ^id <i> ^state new)
              -->
              (make log ^task <i>)
              (modify 1 ^state running))
            """
        )
        engine.make("task", id=7, state="new")
        engine.run(limit=5)
        assert engine.wm.find("log", task=7)
        assert engine.wm.find("task", state="running")

    def test_remove_by_ordinal(self):
        engine = engine_with("(p done (task ^state done) --> (remove 1))")
        engine.make("task", state="done")
        engine.run(limit=5)
        assert not engine.wm.find("task")

    def test_remove_by_element_var(self):
        engine = engine_with(
            "(p done { (task ^state done) <T> } --> (remove <T>))"
        )
        engine.make("task", state="done")
        engine.run(limit=5)
        assert not engine.wm.find("task")

    def test_write_renders_values(self):
        engine = engine_with(
            '(p hi (user ^name <n>) --> (write |Hello,| <n> (crlf)))'
        )
        engine.make("user", name="Ada")
        engine.run(limit=2)
        assert engine.output == ["Hello, Ada \n"]

    def test_halt_stops_the_run(self):
        engine = engine_with(
            """
            (p stopper (item) --> (halt))
            """
        )
        engine.make("item")
        engine.make("item")
        assert engine.run(limit=10) == 1
        assert engine.halted

    def test_bind_and_arithmetic(self):
        engine = engine_with(
            """
            (p calc (n ^v <v>)
              -->
              (bind <double> (<v> * 2))
              (make out ^v <double>))
            """
        )
        engine.make("n", v=21)
        engine.run(limit=2)
        assert engine.wm.find("out", v=42)

    def test_removing_twice_is_an_error(self):
        engine = engine_with(
            "(p bad { (task) <T> } --> (remove <T>) (remove <T>))"
        )
        engine.make("task")
        with pytest.raises(EngineError):
            engine.run(limit=2)


class TestSetActions:
    def test_set_modify_applies_to_all_members(self):
        engine = engine_with(
            """
            (p promote { [emp ^grade junior] <E> }
              -->
              (set-modify <E> ^grade senior))
            """
        )
        for _ in range(4):
            engine.make("emp", grade="junior")
        engine.run(limit=2)
        assert len(engine.wm.find("emp", grade="senior")) == 4

    def test_set_remove(self):
        engine = engine_with(
            "(p purge { [tmp] <T> } --> (set-remove <T>))"
        )
        for _ in range(3):
            engine.make("tmp")
        engine.run(limit=2)
        assert not engine.wm.find("tmp")

    def test_set_actions_reject_regular_targets(self):
        engine = engine_with(
            "(p bad { (task) <T> } --> (set-remove <T>))"
        )
        engine.make("task")
        with pytest.raises(EngineError):
            engine.run(limit=2)

    def test_scalar_target_on_set_ce_requires_singleton(self):
        engine = engine_with(
            "(p bad { [item] <S> } --> (remove <S>))"
        )
        engine.make("item")
        engine.make("item")
        with pytest.raises(EngineError):
            engine.run(limit=2)


class TestForeach:
    def test_foreach_pv_value_grouping(self):
        engine = engine_with(
            """
            (p report [sale ^region <r> ^amount <a>]
              -->
              (foreach <r> ascending
                (write <r> total (sum <a>))))
            """
        )
        engine.make("sale", region="west", amount=10)
        engine.make("sale", region="east", amount=5)
        engine.make("sale", region="west", amount=10)
        engine.make("sale", region="west", amount=2)
        engine.run(limit=2)
        # sum over the PV's value domain within each region group.
        assert engine.output == ["east total 5", "west total 12"]

    def test_foreach_ce_member_iteration(self):
        engine = engine_with(
            """
            (p audit { [entry ^v <v>] <E> }
              -->
              (foreach <E> ascending (write entry <v>)))
            """
        )
        engine.make("entry", v="a")
        engine.make("entry", v="b")
        engine.run(limit=2)
        # Inside a CE foreach the CE's PVs are scalars (§6.2).
        assert engine.output == ["entry a", "entry b"]

    def test_foreach_ce_descending_by_time_tag(self):
        engine = engine_with(
            """
            (p audit { [entry ^v <v>] <E> }
              -->
              (foreach <E> descending (write <v>)))
            """
        )
        engine.make("entry", v="first")
        engine.make("entry", v="second")
        engine.run(limit=2)
        assert engine.output == ["second", "first"]

    def test_default_order_is_conflict_set_order(self):
        engine = engine_with(
            """
            (p teams [player ^team <t>]
              -->
              (foreach <t> (write <t>)))
            """
        )
        engine.make("player", team="A")
        engine.make("player", team="B")
        engine.make("player", team="A")
        engine.run(limit=2)
        # Team A holds the newest tag (3) -> dominant group first.
        assert engine.output == ["A", "B"]

    def test_nested_foreach_composes_selections(self):
        engine = engine_with(
            """
            (p matrix [cell ^row <r> ^col <c>]
              -->
              (foreach <r> ascending
                (foreach <c> ascending
                  (write <r> <c>))))
            """
        )
        engine.make("cell", row=1, col="x")
        engine.make("cell", row=1, col="y")
        engine.make("cell", row=2, col="y")
        engine.run(limit=2)
        assert engine.output == ["1 x", "1 y", "2 y"]

    def test_foreach_over_scalar_is_an_error(self):
        engine = engine_with(
            "(p bad (item ^v <v>) [other] --> (foreach <v> (write <v>)))"
        )
        engine.make("item", v=1)
        engine.make("other")
        with pytest.raises(EngineError):
            engine.run(limit=2)


class TestBindScoping:
    def test_bind_updates_enclosing_frame(self):
        """The RemoveDups pattern: a flag flipped inside foreach persists."""
        engine = engine_with(
            """
            (p first-only [item ^v <v>]
              -->
              (bind <seen> false)
              (foreach <v> ascending
                (if (<seen> == false)
                  (bind <seen> true)
                  (write first <v>))))
            """
        )
        for value in (3, 1, 2):
            engine.make("item", v=value)
        engine.run(limit=2)
        assert engine.output == ["first 1"]

    def test_bind_inside_foreach_resets_per_iteration(self):
        """The AlternativeRemoveDups pattern: per-iteration locals."""
        engine = engine_with(
            """
            (p per-group [item ^g <g> ^v <v>]
              -->
              (foreach <g> ascending
                (bind <count> 0)
                (foreach <v> ascending
                  (bind <count> (<count> + 1)))
                (write <g> has <count>)))
            """
        )
        engine.make("item", g="a", v=1)
        engine.make("item", g="a", v=2)
        engine.make("item", g="b", v=9)
        engine.run(limit=2)
        assert engine.output == ["a has 2", "b has 1"]


class TestIfAction:
    def test_if_else_branches(self):
        engine = engine_with(
            """
            (p judge (score ^v <v>)
              -->
              (if (<v> >= 50) (write pass) else (write fail)))
            """
        )
        engine.make("score", v=80)
        engine.run(limit=2)
        engine.make("score", v=20)
        engine.run(limit=2)
        assert engine.output == ["pass", "fail"]


class TestSetVariableScalarUse:
    def test_singleton_domain_reads_as_scalar(self):
        engine = engine_with(
            "(p solo [item ^v <v>] --> (write only <v>))"
        )
        engine.make("item", v=5)
        engine.run(limit=2)
        assert engine.output == ["only 5"]

    def test_plural_domain_as_scalar_is_an_error(self):
        engine = engine_with(
            "(p bad [item ^v <v>] --> (write <v>))"
        )
        engine.make("item", v=1)
        engine.make("item", v=2)
        with pytest.raises(EngineError):
            engine.run(limit=2)

    def test_aggregate_on_rhs(self):
        engine = engine_with(
            "(p size { [item] <S> } --> (make report ^n (count <S>)))"
        )
        for _ in range(5):
            engine.make("item")
        engine.run(limit=2)
        assert engine.wm.find("report", n=5)


#: One firing per item, with a conflict set of N (paper §7.1).
TUPLE_RUN = """
(literalize item status value)
(literalize control phase)
(p start (control ^phase start) --> (modify 1 ^phase run))
(p process-one
  (control ^phase run)
  (item ^status raw ^value <value>)
  -->
  (bind <n> (<value> + 1))
  (modify 2 ^status done ^value <n>))
(p finish (control ^phase run) -(item ^status raw) --> (modify 1 ^phase end))
"""

#: The same items in one firing each way: set-modify, then set-remove.
SET_ACTIONS = """
(literalize item status value)
(p mark-all { [item ^status raw] <Items> } --> (set-modify <Items> ^status done))
(p drop-all
  { [item ^status done] <Items> }
  :test ((count <Items>) >= 1)
  -->
  (write dropping (count <Items>))
  (set-remove <Items>))
"""

#: A sliding window: a roll-up S-node, a negated CE, and expiry by
#: set-remove, so every tick makes, fires and retracts.
WINDOW_TICKS = """
(literalize dept name)
(literalize emp name dept salary tick)
(literalize seen name tick)
(literalize expire before)
(p rollup
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  -->
  (write rollup <d> (count <staff>) (avg <staff> ^salary)))
(p note-emp
  (emp ^name <n> ^salary > 1500 ^tick <t>)
  -(seen ^name <n>)
  -->
  (make seen ^name <n> ^tick <t>))
(p expire-emps
  (expire ^before <k>)
  { [emp ^tick < <k>] <old> }
  -->
  (set-remove <old>))
(p expire-seen
  (expire ^before <k>)
  { [seen ^tick < <k>] <old> }
  -->
  (set-remove <old>))
(p expire-done { (expire) <marker> } --> (remove <marker>))
"""


def _window_ticks(engine, ticks=8, facts=12, window=3):
    for tick in range(ticks):
        engine.load_facts([
            ("emp", {"name": f"e{tick * facts + i}", "dept": f"d{i % 3}",
                     "salary": 1000 + 150 * i, "tick": tick})
            for i in range(facts)
        ] + [("expire", {"before": tick - window + 1})])
        engine.run()


class TestFiringsLeaveNoCycle:
    """A firing frees itself, its instantiation and a set action's
    retracted members by reference counting: with the collector off, a
    collection afterwards finds no garbage."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        was = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if was:
                gc.enable()

    def _engine(self, make_engine, matcher_name, program):
        engine = make_engine(matcher_name)
        engine.load(program)
        return engine

    def test_tuple_oriented_run(self, make_engine, matcher_name,
                                collector_off):
        engine = self._engine(make_engine, matcher_name, TUPLE_RUN)
        engine.load_facts(
            [("item", {"status": "raw", "value": i}) for i in range(50)]
            + [("control", {"phase": "start"})]
        )
        gc.collect()
        assert engine.run() == 52
        assert gc.collect() == 0

    def test_set_modify_and_set_remove(self, make_engine, matcher_name,
                                       collector_off):
        engine = self._engine(make_engine, matcher_name, SET_ACTIONS)
        engine.load_facts(
            ("item", {"status": "raw", "value": i}) for i in range(1000)
        )
        gc.collect()
        assert engine.run(limit=1) == 1  # the 1 000-member set-modify
        assert gc.collect() == 0
        assert engine.run() == 1  # the 1 000-member set-remove
        assert engine.output == ["dropping 1000"]
        assert len(engine.wm) == 0
        assert gc.collect() == 0

    def test_window_ticks(self, make_engine, matcher_name, collector_off):
        engine = self._engine(make_engine, matcher_name, WINDOW_TICKS)
        engine.load_facts(("dept", {"name": f"d{i}"}) for i in range(3))
        _window_ticks(engine, ticks=2)
        gc.collect()
        _window_ticks(engine)
        assert engine.wm.of_class("emp")
        assert gc.collect() == 0
