"""Shared rule bases: parse once, serve N tenants."""

from __future__ import annotations

import pytest

from repro.rete import ReteNetwork
from repro.service.rulebase import RuleBase, RuleBaseCache, rule_base_key

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


class TestKey:
    def test_same_source_same_key(self):
        assert rule_base_key(PROGRAM) == rule_base_key(PROGRAM)

    def test_source_changes_key(self):
        assert rule_base_key(PROGRAM) != rule_base_key(PROGRAM + " ")

    def test_matcher_changes_key(self):
        assert (rule_base_key(PROGRAM, matcher="rete")
                != rule_base_key(PROGRAM, matcher="naive"))

    def test_backend_irrelevant_for_matchers_that_take_none(self):
        # Only dips runs on the relational substrate; a rete tenant
        # naming a backend shares the entry of one that names none.
        assert (rule_base_key(PROGRAM, "rete", "sqlite")
                == rule_base_key(PROGRAM, "rete", None))
        assert (rule_base_key(PROGRAM, "dips", "sqlite")
                != rule_base_key(PROGRAM, "dips", None))
        cache = RuleBaseCache()
        first, _ = cache.get(PROGRAM, matcher="rete", backend="sqlite")
        second, hit = cache.get(PROGRAM, matcher="rete")
        assert hit and second is first and cache.compiles == 1


class TestRuleBase:
    def test_engines_are_isolated(self):
        base = RuleBase(PROGRAM)
        first = base.build_engine()
        second = base.build_engine()
        try:
            first.make("dept", name="d0")
            first.make("emp", name="sue", dept="d0", salary=100)
            first.run()
            assert len(first.wm) == 2
            assert len(second.wm) == 0
            assert first.output == ["staffed d0 1"]
            assert second.output == []
        finally:
            first.close()
            second.close()

    def test_matcher_instances_are_private(self):
        base = RuleBase(PROGRAM)
        first = base.build_matcher()
        second = base.build_matcher()
        assert first is not second
        assert isinstance(first, ReteNetwork)


class TestRuleBaseCache:
    def test_miss_then_hits(self):
        cache = RuleBaseCache()
        base, hit = cache.get(PROGRAM)
        assert hit is False
        again, hit = cache.get(PROGRAM)
        assert hit is True
        assert again is base
        assert cache.compiles == 1
        assert cache.hits == 1

    def test_distinct_configs_do_not_collide(self):
        cache = RuleBaseCache()
        rete, _ = cache.get(PROGRAM, matcher="rete")
        naive, _ = cache.get(PROGRAM, matcher="naive")
        assert rete is not naive
        assert len(cache) == 2

    def test_stats_aggregate(self):
        cache = RuleBaseCache()
        base, _ = cache.get(PROGRAM)
        cache.get(PROGRAM)
        base.build_engine().close()
        stats = cache.stats()
        assert stats["rule_bases"] == 1
        assert stats["compiles"] == 1
        assert stats["hits"] == 1
        assert stats["sessions_built"] == 1

    def test_bad_program_is_not_cached(self):
        cache = RuleBaseCache()
        with pytest.raises(Exception):
            cache.get("(p broken")
        assert len(cache) == 0
