"""Property-based invariants on the core data structures.

* aggregate states always agree with a from-scratch recomputation;
* γ-memory token lists stay ordered like the conflict set, and SOI
  versions increase monotonically;
* the Rete network's incremental state after a random op sequence
  equals a fresh network fed the surviving WMEs ("incremental = batch");
* internal bookkeeping (token indexes, memories) is leak-free after
  everything is removed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchStats
from repro.core.instantiation import MatchToken
from repro.engine.conflict import ConflictSet, LexStrategy
from repro.lang.parser import parse_rule
from repro.match.base import NullListener
from repro.rete import ReteNetwork
from repro.rete.beta import BetaMemory
from repro.rete.negative import NegativeNode
from repro.rete.aggregates import AggregateSpec, AggregateState
from repro.wm import WME, WorkingMemory

# ---------------------------------------------------------------------------
# Aggregates vs oracle
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 5)),
    min_size=1,
    max_size=40,
)


def _oracle(op, live_values, kind):
    if kind == "pv":
        domain = sorted(set(live_values))
    else:
        domain = sorted(live_values)
    if op == "count":
        return len(domain)
    if not domain:
        return None
    if op == "sum":
        return sum(domain) if domain else 0
    if op == "avg":
        return sum(domain) / len(domain)
    if op == "min":
        return domain[0]
    return domain[-1]


class TestAggregateOracle:
    @given(_ops, st.sampled_from(["count", "sum", "min", "max", "avg"]),
           st.sampled_from(["pv", "ce"]))
    @settings(max_examples=120, deadline=None)
    def test_incremental_equals_recompute(self, ops, op, kind):
        spec = AggregateSpec(op, "S", kind, 0, "v")
        state = AggregateState(spec)
        live = []  # (token, value)
        tag = 0
        for action, value in ops:
            if action == "add" or not live:
                tag += 1
                token = MatchToken([WME("item", {"v": value}, tag)])
                state.add_token(token)
                live.append((token, value))
            else:
                token, _ = live.pop(value % len(live))
                state.remove_token(token)
            values = [v for _, v in live]
            expected = _oracle(op, values, kind)
            if op == "sum" and not values:
                # sum over empty: our state reports 0, oracle None-ish.
                assert state.value() == 0
            else:
                assert state.value() == expected


# ---------------------------------------------------------------------------
# γ-memory ordering + version monotonicity
# ---------------------------------------------------------------------------

SET_RULE = "(p watch [item ^owner <o> ^v <v>] :scalar (<o>) --> (halt))"

_wm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("make"), st.sampled_from(["a", "b"]),
                  st.integers(0, 4)),
        st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


class TestGammaMemoryInvariants:
    @given(_wm_ops)
    @settings(max_examples=80, deadline=None)
    def test_tokens_sorted_and_versions_monotone(self, ops):
        wm = WorkingMemory()
        net = ReteNetwork()
        net.set_listener(NullListener())
        net.attach(wm)
        net.add_rule(parse_rule(SET_RULE))
        snode = net.snode_for("watch")
        made = []
        last_versions = {}
        for op in ops:
            if op[0] == "make":
                made.append(wm.make("item", owner=op[1], v=op[2]))
            else:
                live = [w for w in made if w in wm]
                if live:
                    wm.remove(live[op[1] % len(live)])
            for soi in snode.gamma.values():
                keys = [t.time_tags() for t in soi.snapshot()]
                assert keys == sorted(keys, reverse=True)
                # Hold the SOI object itself so CPython cannot recycle
                # its id() for a successor SOI.
                _, previous = last_versions.get(id(soi), (None, -1))
                assert soi.version >= previous
                last_versions[id(soi)] = (soi, soi.version)


# ---------------------------------------------------------------------------
# Incremental = batch
# ---------------------------------------------------------------------------

PORTFOLIO = [
    "(p j (item ^owner <o>) (owner ^name <o>) --> (halt))",
    "(p n (item ^owner <o>) -(owner ^name <o>) --> (halt))",
    "(p s { [item ^v <v>] <S> } :test ((count <S>) >= 2) --> (halt))",
    # A self-join: one item sits in a token and in that token's child.
    "(p d (item ^owner <o>) (item ^owner <o>) --> (halt))",
]


def snapshot(listener_live):
    return sorted(
        (
            inst.rule.name,
            tuple(
                sorted(
                    tuple(w.time_tag if w else 0 for w in t.wmes())
                    for t in inst.tokens()
                )
            ),
        )
        for inst in listener_live
    )


class _Recorder:
    def __init__(self):
        self.live = []

    def insert(self, inst):
        self.live.append(inst)

    def retract(self, inst):
        self.live.remove(inst)

    def reposition(self, inst):
        pass


class TestIncrementalEqualsBatch:
    @given(_wm_ops)
    @settings(max_examples=60, deadline=None)
    def test_replay_matches(self, ops):
        wm = WorkingMemory()
        recorder = _Recorder()
        net = ReteNetwork()
        net.set_listener(recorder)
        net.attach(wm)
        for source in PORTFOLIO:
            net.add_rule(parse_rule(source))
        made = []
        for op in ops:
            if op[0] == "make":
                made.append(
                    wm.make("item", owner=op[1], v=op[2])
                    if op[1] == "a"
                    else wm.make("owner", name=str(op[2]))
                )
            else:
                live = [w for w in made if w in wm]
                if live:
                    wm.remove(live[op[1] % len(live)])

        # Batch network: rules first, then the surviving WMEs replayed
        # (with their original time tags preserved via direct events).
        batch_wm = WorkingMemory()
        batch_recorder = _Recorder()
        batch = ReteNetwork()
        batch.set_listener(batch_recorder)
        batch.attach(batch_wm)
        for source in PORTFOLIO:
            batch.add_rule(parse_rule(source))
        from repro.wm.events import ADD, WMEvent

        for wme in wm:
            batch.on_event(WMEvent(ADD, wme))

        assert snapshot(recorder.live) == snapshot(batch_recorder.live)


# ---------------------------------------------------------------------------
# Leak freedom
# ---------------------------------------------------------------------------


def assert_token_chains_intact(net):
    """Every live token holding a WME is on that WME's chain exactly
    once, and no chain holds a deleted token."""
    chained = []
    for wme, token in net._wme_tokens.items():
        newer = None
        while token is not None:
            assert token.wme is wme
            assert token.node is not None, "a deleted token is chained"
            assert token.wme_prev is newer
            chained.append(token)
            newer, token = token, token.wme_next
    live = [
        token
        for node in net._beta_nodes
        if isinstance(node, BetaMemory)
        for token in node.items
        if token.wme is not None
    ]
    assert len(chained) == len(set(chained))
    assert set(chained) == set(live)


class TestNoLeaks:
    @given(_wm_ops)
    @settings(max_examples=60, deadline=None)
    def test_everything_cleans_up(self, ops):
        wm = WorkingMemory()
        conflict_set = ConflictSet()
        strategy = LexStrategy()
        stats = MatchStats()
        net = ReteNetwork(stats=stats)
        net.set_listener(conflict_set)
        net.attach(wm)
        for source in PORTFOLIO:
            net.add_rule(parse_rule(source))
        made = []
        for op in ops:
            if op[0] == "make":
                made.append(wm.make("item", owner=op[1], v=op[2]))
                if op[2] >= 3:  # sometimes a blocker of rule n as well
                    made.append(wm.make("owner", name=op[1]))
                # Rank what arrived, so the ordering has records to shed.
                conflict_set.select(strategy)
            else:
                live = [w for w in made if w in wm]
                if live:
                    wm.remove(live[op[1] % len(live)])
            assert_token_chains_intact(net)
        wm.clear()
        assert stats.totals["tokens_created"] == stats.totals["tokens_deleted"]
        assert not net._wme_tokens
        assert not net._wme_neg_results
        assert net._dummy_token.last_child is None
        for node in net._beta_nodes:
            if isinstance(node, NegativeNode):
                assert not node.items  # so no token holds blockers
        assert conflict_set.inserts == conflict_set.retracts
        assert len(conflict_set) == 0
        assert conflict_set.ordering_size() == 0
        for snode in net.snodes.values():
            assert snode.gamma == {}
