"""Tests for runtime rule removal (OPS5 excise), across matchers."""

import pytest

from repro.errors import ReproError


class TestExcise:
    def test_instantiations_retracted(self, make_engine, matcher_name):
        engine = make_engine(matcher_name)
        engine.add_rule("(p doomed (item) --> (write x))")
        engine.add_rule("(p keeper (item) --> (write y))")
        engine.make("item")
        assert engine.conflict_set_size() == 2
        engine.excise("doomed")
        assert engine.conflict_set_size() == 1
        assert engine.conflict_set.instantiations()[0].rule.name == "keeper"
        assert "doomed" not in engine.rules

    def test_set_rule_sois_retracted(self, make_engine, matcher_name):
        engine = make_engine(matcher_name)
        engine.add_rule("(p doomed [item ^v <v>] --> (write x))")
        engine.make("item", v=1)
        engine.make("item", v=2)
        assert engine.conflict_set_size() == 1
        engine.excise("doomed")
        assert engine.conflict_set_size() == 0

    def test_excised_rule_stays_dead(self, make_engine, matcher_name):
        engine = make_engine(matcher_name)
        engine.add_rule("(p doomed (item) --> (write x))")
        engine.excise("doomed")
        engine.make("item")
        assert engine.conflict_set_size() == 0
        assert engine.run(limit=5) == 0

    def test_name_reusable_after_excise(self, make_engine,
                                        matcher_name):
        engine = make_engine(matcher_name)
        engine.add_rule("(p r (item) --> (write old))")
        engine.excise("r")
        engine.add_rule("(p r (item) --> (write new))")
        engine.make("item")
        engine.run(limit=2)
        assert engine.output == ["new"]

    def test_unknown_rule_raises(self, make_engine, matcher_name):
        engine = make_engine(matcher_name)
        with pytest.raises(ReproError):
            engine.excise("ghost")

    def test_shared_prefix_survives(self, make_engine):
        """Excising one of two prefix-sharing rules leaves the other."""
        engine = make_engine("rete")
        engine.add_rule("(p a (x ^v <v>) (y ^v <v>) --> (write a))")
        engine.add_rule("(p b (x ^v <v>) (y ^v <v>) (z) --> (write b))")
        engine.make("x", v=1)
        engine.make("y", v=1)
        engine.make("z")
        assert engine.conflict_set_size() == 2
        engine.excise("a")
        assert engine.conflict_set_size() == 1
        # Rule b keeps matching new data through the shared joins.
        engine.make("x", v=1)
        assert engine.conflict_set_size() == 2

    def test_dips_cond_rows_cleaned(self, make_engine):
        engine = make_engine("dips")
        engine.add_rule("(p doomed (E ^name <x>) --> (write x))")
        engine.make("E", name="Mike")
        engine.excise("doomed")
        table = engine.matcher.store.cond_table("E")
        assert all(
            row.get("rule_id") != "doomed" for row in table.scan()
        )
