"""Unit tests for the naive oracle matcher."""

import pytest

from repro import MatchStats
from repro.errors import RuleError
from repro.lang.parser import parse_rule
from repro.match import NaiveMatcher
from repro.wm import WorkingMemory

from tests.rete.test_network import Listener


def build(matcher, *sources):
    wm = WorkingMemory()
    listener = Listener()
    matcher.set_listener(listener)
    matcher.attach(wm)
    for source in sources:
        matcher.add_rule(parse_rule(source))
    return wm, listener


@pytest.fixture(params=[NaiveMatcher])
def matcher_cls(request):
    return request.param


class TestBaselineMatching:
    def test_join(self, matcher_cls):
        wm, listener = build(
            matcher_cls(), "(p r (a ^x <v>) (b ^y <v>) --> (halt))"
        )
        wm.make("a", x=1)
        wm.make("b", y=1)
        wm.make("b", y=2)
        assert len(listener.live) == 1

    def test_removal(self, matcher_cls):
        wm, listener = build(
            matcher_cls(), "(p r (a ^x <v>) (b ^y <v>) --> (halt))"
        )
        a = wm.make("a", x=1)
        wm.make("b", y=1)
        wm.remove(a)
        assert not listener.live

    def test_negation(self, matcher_cls):
        wm, listener = build(
            matcher_cls(), "(p r (goal) -(done) --> (halt))"
        )
        wm.make("goal")
        assert len(listener.live) == 1
        done = wm.make("done")
        assert not listener.live
        wm.remove(done)
        assert len(listener.live) == 1

    def test_set_rule_grouping(self, matcher_cls):
        wm, listener = build(
            matcher_cls(),
            "(p r [item ^owner <o>] :scalar (<o>) --> (halt))",
        )
        wm.make("item", owner="x")
        wm.make("item", owner="x")
        wm.make("item", owner="y")
        assert len(listener.live) == 2

    def test_set_rule_test_clause(self, matcher_cls):
        wm, listener = build(
            matcher_cls(),
            "(p r { [item] <S> } :test ((count <S>) >= 2) --> (halt))",
        )
        first = wm.make("item")
        assert not listener.live
        wm.make("item")
        assert len(listener.live) == 1
        wm.remove(first)
        assert not listener.live

    def test_duplicate_rule_rejected(self, matcher_cls):
        matcher = matcher_cls()
        _, _ = build(matcher, "(p r (a) --> (halt))")
        with pytest.raises(RuleError):
            matcher.add_rule(parse_rule("(p r (b) --> (halt))"))

    def test_backfill_on_late_rule(self, matcher_cls):
        matcher = matcher_cls()
        wm, listener = build(matcher)
        wm.make("a", x=1)
        wm.make("b", y=1)
        matcher.add_rule(parse_rule("(p r (a ^x <v>) (b ^y <v>) --> (halt))"))
        assert len(listener.live) == 1


class TestNaiveSpecifics:
    def test_recomputation_counter(self):
        stats = MatchStats()
        matcher = NaiveMatcher()
        matcher.set_stats(stats)
        wm, listener = build(matcher, "(p r (a) --> (halt))")
        before = stats.counters["naive_recomputations"]
        wm.make("a")
        wm.make("a")
        assert stats.counters["naive_recomputations"] == before + 2
