"""Unit tests for negated condition elements."""

import pytest

from repro import MatchStats
from repro.lang.parser import parse_rule
from repro.rete import ReteNetwork
from repro.rete.beta import JoinNode
from repro.rete.negative import NegativeNode
from repro.wm import WorkingMemory

from tests.rete.test_network import Listener


def build(*sources, **options):
    wm = WorkingMemory()
    listener = Listener()
    net = ReteNetwork(**options)
    net.set_listener(listener)
    net.attach(wm)
    for source in sources:
        net.add_rule(parse_rule(source))
    return wm, net, listener


class TestBasicNegation:
    def test_absence_matches(self):
        wm, net, listener = build("(p r (goal) -(done) --> (halt))")
        wm.make("goal")
        assert len(listener.live) == 1

    def test_blocker_retracts(self):
        wm, net, listener = build("(p r (goal) -(done) --> (halt))")
        wm.make("goal")
        done = wm.make("done")
        assert len(listener.live) == 0
        wm.remove(done)
        assert len(listener.live) == 1

    def test_multiple_blockers_counted(self):
        wm, net, listener = build("(p r (goal) -(done) --> (halt))")
        wm.make("goal")
        first = wm.make("done")
        second = wm.make("done")
        wm.remove(first)
        assert len(listener.live) == 0  # still blocked by the second
        wm.remove(second)
        assert len(listener.live) == 1

    def test_blocker_present_before_positive(self):
        wm, net, listener = build("(p r (goal) -(done) --> (halt))")
        wm.make("done")
        wm.make("goal")
        assert len(listener.live) == 0


class TestNegationWithVariables:
    def test_negation_joins_on_bound_variable(self):
        wm, net, listener = build(
            "(p r (task ^id <i>) -(lock ^id <i>) --> (halt))"
        )
        wm.make("task", id=1)
        wm.make("task", id=2)
        wm.make("lock", id=1)
        names = [inst.token.wme_at(0).get("id") for inst in listener.live]
        assert names == [2]

    def test_negated_intra_ce_variable(self):
        # <x> bound and tested within the negated CE itself.
        wm, net, listener = build(
            "(p r (goal) -(pair ^a <x> ^b <x>) --> (halt))"
        )
        wm.make("goal")
        assert len(listener.live) == 1
        wm.make("pair", a=1, b=2)  # not a blocker: a != b
        assert len(listener.live) == 1
        blocker = wm.make("pair", a=3, b=3)
        assert len(listener.live) == 0
        wm.remove(blocker)
        assert len(listener.live) == 1


class TestNegationPositions:
    def test_leading_negation(self):
        wm, net, listener = build("(p r -(stop) (goal) --> (halt))")
        wm.make("goal")
        assert len(listener.live) == 1
        wm.make("stop")
        assert len(listener.live) == 0

    def test_double_negation_levels(self):
        wm, net, listener = build(
            "(p r (goal) -(a) -(b) --> (halt))"
        )
        wm.make("goal")
        assert len(listener.live) == 1
        a = wm.make("a")
        wm.make("b")
        assert len(listener.live) == 0
        wm.remove(a)
        assert len(listener.live) == 0  # b still blocks

    def test_removing_positive_under_negation(self):
        stats = MatchStats()
        wm, net, listener = build("(p r (goal) -(done) --> (halt))",
                                  stats=stats)
        goal = wm.make("goal")
        wm.remove(goal)
        assert len(listener.live) == 0
        assert stats.totals["tokens_created"] == stats.totals["tokens_deleted"]


class TestNegationAndSetRules:
    def test_negated_ce_with_set_ce(self):
        wm, net, listener = build(
            "(p r { [item ^status raw] <Items> } -(stop) --> (halt))"
        )
        wm.make("item", status="raw")
        wm.make("item", status="raw")
        assert len(listener.live) == 1
        assert len(listener.live[0].tokens()) == 2
        wm.make("stop")
        assert len(listener.live) == 0


def node_of(net, kind, level):
    [node] = [n for n in net._beta_nodes
              if isinstance(n, kind) and n.level == level]
    return node


def counters(stats, node):
    return dict(stats.nodes[node.stats_key])


class TestNegativeNodeAccessPath:
    """A negated equality CE probes both indexes (ROADMAP item 1a)."""

    RULE = "(p r (task ^id <i>) -(lock ^id <i>) --> (halt))"

    def test_right_activation_tests_only_its_bucket(self):
        stats = MatchStats()
        wm, net, listener = build(self.RULE, stats=stats)
        for i in range(10):
            wm.make("task", id=i)
        wm.make("task", id=3)
        neg = node_of(net, NegativeNode, 1)
        before = counters(stats, neg)
        wm.make("lock", id=3)
        after = counters(stats, neg)
        assert after["join_tests"] - before["join_tests"] == 2  # not 11
        assert after["index_probes"] - before["index_probes"] == 1
        assert after["full_scans"] == 0
        assert len(listener.live) == 9

    def test_left_activation_probes_the_alpha_index(self):
        stats = MatchStats()
        wm, net, listener = build(self.RULE, stats=stats)
        for i in range(10):
            wm.make("lock", id=i)
        neg = node_of(net, NegativeNode, 1)
        before = counters(stats, neg)
        wm.make("task", id=3)
        after = counters(stats, neg)
        assert after["join_tests"] - before["join_tests"] == 1  # not 10
        assert after["index_probes"] - before["index_probes"] == 1
        assert after["full_scans"] == 0
        assert listener.live == []

    def test_numeric_keys_block_across_int_and_float(self):
        wm, net, listener = build(self.RULE)
        wm.make("task", id=1)
        lock = wm.make("lock", id=1.0)
        assert listener.live == []
        wm.remove(lock)
        assert len(listener.live) == 1

    def test_scan_oracle_reports_only_full_scans(self):
        stats = MatchStats()
        wm, net, listener = build(self.RULE, stats=stats, indexed_joins=False)
        for i in range(4):
            wm.make("task", id=i)
        wm.make("lock", id=2)
        neg = node_of(net, NegativeNode, 1)
        after = counters(stats, neg)
        assert after["index_probes"] == 0
        assert after["full_scans"] == 5
        assert neg.indexes == {} and neg.access_path() == "scan"
        assert len(listener.live) == 3

    def test_token_index_is_empty_after_everything_is_removed(self):
        stats = MatchStats()
        wm, net, listener = build(self.RULE, stats=stats)
        made = [wm.make("task", id=i % 3) for i in range(6)]
        made += [wm.make("lock", id=i) for i in range(2)]
        neg = node_of(net, NegativeNode, 1)
        assert sum(len(b) for b in neg.indexes[(0, "id")].values()) == 6
        for wme in made:
            wm.remove(wme)
        assert neg.items == {}
        assert neg.indexes == {(0, "id"): {}}
        assert neg.amem.indexes == {"id": {}}
        assert stats.totals["tokens_created"] == stats.totals["tokens_deleted"]


class TestJoinBelowNegation:
    """A positive CE after a negated one probes the negative node's index."""

    RULE = "(p r (a ^k <v>) -(b ^k <v>) (c ^k <v>) --> (halt))"

    def test_join_below_negative_node_probes_both_sides(self):
        stats = MatchStats()
        wm, net, listener = build(self.RULE, stats=stats)
        for k in range(5):
            wm.make("a", k=k)
            wm.make("c", k=k)
        wm.make("a", k=9)
        join = node_of(net, JoinNode, 2)
        after = counters(stats, join)
        assert after["index_probes"] > 0
        assert after["full_scans"] == 0
        assert after["join_tests"] == after["join_passed"] == 5
        assert len(listener.live) == 5

    @pytest.mark.parametrize("batched", [False, True])
    def test_probe_never_hands_over_a_deactivated_token(self, batched):
        stats = MatchStats()
        wm, net, listener = build(self.RULE, stats=stats)
        wm.make("a", k=1)
        wm.make("a", k=2)
        blocker = wm.make("b", k=1)
        join = node_of(net, JoinNode, 2)
        # The k=1 token sits, deactivated, in the bucket the join probes.
        [blocked] = [t for t in join.left.items if not t.active]
        assert blocked in join.left.indexes[(0, "k")][1]
        if batched:
            with wm.batch():
                wm.make("c", k=1)
                wm.make("c", k=2)
        else:
            wm.make("c", k=1)
            wm.make("c", k=2)
        assert [i.token.wme_at(0).get("k") for i in listener.live] == [2]
        assert counters(stats, join)["full_scans"] == 0
        assert blocked.last_child is None
        wm.remove(blocker)
        assert sorted(
            i.token.wme_at(0).get("k") for i in listener.live
        ) == [1, 2]
