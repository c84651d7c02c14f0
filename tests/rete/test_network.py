"""Integration-level tests of the Rete network: joins, deletion, sharing."""

import pytest

from repro import MatchStats
from repro.errors import RuleError
from repro.lang.parser import parse_rule
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory


class Listener:
    def __init__(self):
        self.live = []
        self.events = []

    def insert(self, inst):
        self.live.append(inst)
        self.events.append(("+", inst.rule.name))

    def retract(self, inst):
        self.live.remove(inst)
        self.events.append(("-", inst.rule.name))

    def reposition(self, inst):
        self.events.append(("time", inst.rule.name))


def build(*sources, stats=None):
    wm = WorkingMemory()
    listener = Listener()
    net = ReteNetwork(stats=stats)
    net.set_listener(listener)
    net.attach(wm)
    for source in sources:
        net.add_rule(parse_rule(source))
    return wm, net, listener


class TestJoins:
    def test_two_ce_equijoin(self):
        wm, net, listener = build(
            "(p r (a ^x <v>) (b ^y <v>) --> (halt))"
        )
        wm.make("a", x=1)
        wm.make("b", y=2)
        assert len(listener.live) == 0
        wm.make("b", y=1)
        assert len(listener.live) == 1

    def test_join_order_independent(self):
        """Right activation (b first) and left activation both work."""
        wm, net, listener = build(
            "(p r (a ^x <v>) (b ^y <v>) --> (halt))"
        )
        wm.make("b", y=7)
        wm.make("a", x=7)
        assert len(listener.live) == 1

    def test_three_way_join(self):
        wm, net, listener = build(
            "(p r (a ^x <v>) (b ^x <v> ^y <w>) (c ^y <w>) --> (halt))"
        )
        wm.make("a", x=1)
        wm.make("b", x=1, y=2)
        wm.make("c", y=2)
        assert len(listener.live) == 1
        wm.make("c", y=2)
        assert len(listener.live) == 2

    def test_inequality_join(self):
        wm, net, listener = build(
            "(p r (bid ^amount <a>) (ask ^amount <= <a>) --> (halt))"
        )
        wm.make("bid", amount=10)
        wm.make("ask", amount=12)
        assert not listener.live
        wm.make("ask", amount=10)
        assert len(listener.live) == 1

    def test_self_join_no_duplicate_tokens(self):
        # One WME satisfying two CEs of the same rule must produce one
        # instantiation, not two (alpha successors right-activate
        # deepest-first to guarantee this).
        wm, net, listener = build("(p r (a ^x <v>) (a ^x <v>) --> (halt))")
        wm.make("a", x=1)
        assert len(listener.live) == 1
        wm.make("a", x=1)
        assert len(listener.live) == 4  # 2x2 pairs

    def test_self_blocking_negation(self):
        wm, net, listener = build("(p r (a ^x <v>) -(a ^x <v>) --> (halt))")
        wm.make("a", x=1)
        assert len(listener.live) == 0

    def test_cross_product_without_shared_vars(self):
        wm, net, listener = build("(p r (a) (b) --> (halt))")
        for _ in range(3):
            wm.make("a")
        for _ in range(2):
            wm.make("b")
        assert len(listener.live) == 6


class TestRemoval:
    def test_wme_removal_retracts_instantiations(self):
        wm, net, listener = build(
            "(p r (a ^x <v>) (b ^y <v>) --> (halt))"
        )
        a = wm.make("a", x=1)
        wm.make("b", y=1)
        wm.make("b", y=1)
        assert len(listener.live) == 2
        wm.remove(a)
        assert len(listener.live) == 0

    def test_modify_retracts_then_reasserts(self):
        wm, net, listener = build("(p r (a ^x 1) --> (halt))")
        a = wm.make("a", x=1)
        assert len(listener.live) == 1
        a2 = wm.modify(a, x=2)
        assert len(listener.live) == 0
        wm.modify(a2, x=1)
        assert len(listener.live) == 1

    def test_token_cleanup_is_complete(self):
        stats = MatchStats()
        wm, net, listener = build(
            "(p r (a ^x <v>) (b ^y <v>) --> (halt))", stats=stats
        )
        wmes = [wm.make("a", x=i % 3) for i in range(6)]
        wmes += [wm.make("b", y=i % 3) for i in range(6)]
        for wme in wmes:
            wm.remove(wme)
        assert not listener.live
        assert stats.totals["tokens_created"] == stats.totals["tokens_deleted"]
        assert not net._wme_tokens


class TestSharing:
    def test_identical_join_prefix_shared(self):
        wm, net, listener = build(
            "(p r1 (a ^x <v>) (b ^y <v>) --> (halt))",
            "(p r2 (a ^x <v>) (b ^y <v>) (c) --> (halt))",
        )
        wm.make("a", x=1)
        wm.make("b", y=1)
        wm.make("c")
        assert len(listener.live) == 2
        # The dummy top has exactly one successor: the shared first join.
        assert len(net.dummy_top.successors) == 1

    def test_set_rule_shares_prefix_with_regular_rule(self):
        """Paper §5: the network is untouched except at the end."""
        wm, net, listener = build(
            "(p regular (a ^x <v>) (b ^y <v>) --> (halt))",
            "(p set-version (a ^x <v>) [b ^y <v>] --> (halt))",
        )
        assert len(net.dummy_top.successors) == 1
        wm.make("a", x=1)
        wm.make("b", y=1)
        names = sorted(inst.rule.name for inst in listener.live)
        assert names == ["regular", "set-version"]

    def test_duplicate_rule_name_rejected(self):
        wm, net, listener = build("(p r (a) --> (halt))")
        with pytest.raises(RuleError):
            net.add_rule(parse_rule("(p r (b) --> (halt))"))


class TestLateRuleAddition:
    def test_rule_added_after_wmes_backfills(self):
        wm, net, listener = build()
        wm.make("a", x=1)
        wm.make("b", y=1)
        net.add_rule(parse_rule("(p late (a ^x <v>) (b ^y <v>) --> (halt))"))
        assert len(listener.live) == 1

    def test_late_rule_sharing_existing_prefix(self):
        wm, net, listener = build("(p r1 (a ^x <v>) (b ^y <v>) --> (halt))")
        wm.make("a", x=1)
        wm.make("b", y=1)
        net.add_rule(
            parse_rule("(p r2 (a ^x <v>) (b ^y <v>) (c) --> (halt))")
        )
        wm.make("c")
        assert len(listener.live) == 2

    def test_late_set_rule_backfills_soi(self):
        wm, net, listener = build()
        for value in (1, 2, 3):
            wm.make("item", v=value)
        net.add_rule(parse_rule("(p late [item ^v <v>] --> (halt))"))
        assert len(listener.live) == 1
        assert len(listener.live[0].tokens()) == 3
