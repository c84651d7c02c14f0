"""Unit tests for conflict resolution: LEX, MEA, refraction, SOI ranking."""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RuleEngine
from repro.core.instantiation import (
    Instantiation,
    MatchToken,
    SetInstantiation,
)
from repro.errors import ConflictResolutionError, FiringError
from repro.engine.conflict import (
    ConflictSet,
    LexStrategy,
    MeaStrategy,
    strategy_named,
)
from repro.lang.parser import parse_rule
from repro.wm import WME


class TestStrategySelection:
    def test_named_strategies(self):
        assert strategy_named("lex").name == "lex"
        assert strategy_named("mea").name == "mea"
        with pytest.raises(ConflictResolutionError):
            strategy_named("random")


class TestLexOrdering:
    def test_recency_dominates(self):
        engine = RuleEngine()
        engine.add_rule("(p r (item ^v <v>) --> (write fired <v>))")
        engine.make("item", v="old")
        engine.make("item", v="new")
        engine.step()
        assert engine.output == ["fired new"]

    def test_specificity_breaks_recency_ties(self):
        engine = RuleEngine()
        engine.add_rule("(p loose (item) --> (write loose))")
        engine.add_rule(
            "(p tight (item ^v 1 ^w 2) --> (write tight))"
        )
        engine.make("item", v=1, w=2)
        engine.step()
        assert engine.output == ["tight"]

    def test_longer_tag_list_dominates_equal_prefix(self):
        engine = RuleEngine()
        engine.add_rule("(p one-ce (b) --> (write one))")
        engine.add_rule("(p two-ce (b) (a) --> (write two))")
        engine.make("a")
        engine.make("b")
        engine.step()
        assert engine.output == ["two"]


class TestMea:
    def test_first_ce_recency_dominates(self):
        # Under LEX the instantiation with the most recent tag overall
        # wins; under MEA the first CE's recency is compared first.
        program = [
            "(p alpha (ctl ^step one) (data) --> (write alpha))",
            "(p beta (ctl ^step two) --> (write beta))",
        ]
        lex = RuleEngine(strategy="lex")
        mea = RuleEngine(strategy="mea")
        for engine in (lex, mea):
            for rule in program:
                engine.add_rule(rule)
            engine.make("ctl", step="one")   # tag 1
            engine.make("ctl", step="two")   # tag 2
            engine.make("data")              # tag 3 (most recent overall)
            engine.step()
        # LEX: alpha has tags (3,1) beating beta's (2).
        assert lex.output == ["alpha"]
        # MEA: beta's first CE (tag 2) beats alpha's first CE (tag 1).
        assert mea.output == ["beta"]


class TestRefraction:
    def test_instantiation_fires_once(self):
        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (write fired))")
        engine.make("item")
        assert engine.run(limit=10) == 1

    def test_new_wme_allows_new_firing(self):
        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (write fired))")
        engine.make("item")
        engine.run(limit=10)
        engine.make("item")
        assert engine.run(limit=10) == 1

    def test_soi_refires_when_content_changes(self):
        """Paper §6: any change to the instantiation re-enables it."""
        engine = RuleEngine()
        engine.add_rule(
            "(p watch { [item] <S> } --> (write saw (count <S>)))"
        )
        engine.make("item")
        engine.run(limit=10)
        engine.make("item")  # the SOI changes -> eligible again
        engine.run(limit=10)
        assert engine.output == ["saw 1", "saw 2"]

    def test_soi_does_not_refire_unchanged(self):
        engine = RuleEngine()
        engine.add_rule(
            "(p watch { [item] <S> } --> (write saw (count <S>)))"
        )
        engine.make("item")
        engine.make("item")
        assert engine.run(limit=10) == 1


class TestConflictSetApi:
    def test_of_rule_and_ordered(self):
        engine = RuleEngine()
        engine.add_rule("(p r1 (a) --> (halt))")
        engine.add_rule("(p r2 (a) (b) --> (halt))")
        engine.make("a")
        engine.make("b")
        assert len(engine.conflict_set.of_rule("r1")) == 1
        ordered = engine.conflict_set.ordered(engine.strategy)
        assert ordered[0].rule.name == "r2"

    def test_counters(self):
        engine = RuleEngine()
        engine.add_rule("(p r (a) --> (halt))")
        wme = engine.make("a")
        engine.remove(wme)
        assert engine.conflict_set.inserts == 1
        assert engine.conflict_set.retracts == 1


# ---------------------------------------------------------------------------
# The ordered structure behind select: same answer as a max over the members
# ---------------------------------------------------------------------------

_RULES = {
    # A self-join: (w1, w2) and (w2, w1) share recency, specificity and
    # name, so equal keys occur and only membership order decides.
    "pair": parse_rule("(p pair (n ^v <a>) (n ^v <b>) --> (halt))"),
    "solo": parse_rule("(p solo (n ^v <a>) --> (halt))"),
    "watch": parse_rule("(p watch { [n] <S> } --> (halt))"),
}
_WMES = [WME("n", {"v": tag}, tag) for tag in range(1, 4)]


class _Soi:
    """Just enough of an SOI for SetInstantiation: live tokens, version
    and the change hook, bumped the way γ-memory bumps a real one."""

    def __init__(self, head):
        self.tokens = [MatchToken([_WMES[head]])]
        self.version = 0
        self.on_change = None

    def head(self):
        return self.tokens[0]

    def add(self, wme, at_head):
        self.tokens.insert(0 if at_head else len(self.tokens),
                           MatchToken([wme]))
        self.bump()

    def drop_head(self):
        if len(self.tokens) > 1:
            del self.tokens[0]
            self.bump()

    def bump(self):
        self.version += 1
        if self.on_change is not None:
            self.on_change()


class _CountingLex(LexStrategy):
    def __init__(self):
        self.calls = 0

    def key(self, instantiation):
        self.calls += 1
        return super().key(instantiation)


def reference_select(conflict_set, strategy):
    """``ConflictSet.select`` as it was: a max over every live member."""
    eligible = [i for i in conflict_set.instantiations() if i.eligible()]
    return max(eligible, key=strategy.key) if eligible else None


_index = st.integers(0, len(_WMES) - 1)
_conflict_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(["pair", "solo"]),
                  _index, _index),
        st.tuples(st.just("insert-soi"), _index),
        st.tuples(st.just("retract"), st.integers(0, 40)),
        st.tuples(st.just("fire")),
        st.tuples(st.just("restore"), st.integers(0, 40)),
        st.tuples(st.just("touch-soi"), st.integers(0, 40)),
        st.tuples(st.just("raise-head"), st.integers(0, 40)),
        st.tuples(st.just("drop-head"), st.integers(0, 40)),
        st.tuples(st.sampled_from(["quarantine", "release", "drop"]),
                  st.sampled_from(sorted(_RULES))),
        st.tuples(st.just("switch")),
    ),
    min_size=1,
    max_size=60,
)


class TestOrderedSelection:
    @given(_conflict_ops)
    @settings(max_examples=300, deadline=None)
    def test_select_is_the_max_over_the_members(self, ops):
        conflict_set = ConflictSet()
        strategies = [LexStrategy(), MeaStrategy()]
        known = []  # inserted and not retracted: live or parked
        fired = []  # (instantiation, refraction state before it fired)
        newer = count(len(_WMES) + 1)  # time tags above every _WMES one
        for op in ops:
            kind = op[0]
            if kind == "insert":
                wmes = [_WMES[op[2]], _WMES[op[3]]]
                rule = _RULES[op[1]]
                token = MatchToken(wmes if op[1] == "pair" else wmes[:1])
                self._insert(conflict_set, known, Instantiation(rule, token))
            elif kind == "insert-soi":
                self._insert(conflict_set, known, SetInstantiation(
                    _RULES["watch"], _Soi(op[1])
                ))
            elif kind == "retract" and known:
                conflict_set.retract(known.pop(op[1] % len(known)))
            elif kind == "fire":
                chosen = conflict_set.select(strategies[0])
                if chosen is not None:
                    fired.append((chosen, chosen.refraction_state()))
                    chosen.mark_fired()
            elif kind == "restore" and fired:
                conflict_set.restore_refraction(
                    *fired.pop(op[1] % len(fired))
                )
            elif kind in ("touch-soi", "raise-head", "drop-head"):
                # touch-soi: a change below the head, which the S-node
                # reports with no mark, yet the SOI may fire again.
                # raise-head: a newer token, so the re-keyed SOI must
                # overtake the current top; drop-head: its key falls.
                sois = [i for i in known if i.is_set_oriented]
                if sois:
                    soi = sois[op[1] % len(sois)].soi
                    if kind == "touch-soi":
                        soi.add(_WMES[0], at_head=False)
                    elif kind == "raise-head":
                        tag = next(newer)
                        soi.add(WME("n", {"v": tag}, tag), at_head=True)
                    else:
                        soi.drop_head()
            elif kind == "quarantine":
                conflict_set.quarantine_rule(op[1])
            elif kind == "release":
                conflict_set.release_rule(op[1])
            elif kind == "drop":
                for parked in conflict_set.parked_of_rule(op[1]):
                    known.remove(parked)
                conflict_set.drop_rule(op[1])
            elif kind == "switch":
                strategies.reverse()
            assert conflict_set.ordering_size() <= 2 * len(conflict_set)
            assert conflict_set.select(strategies[0]) is reference_select(
                conflict_set, strategies[0]
            )

    @staticmethod
    def _insert(conflict_set, known, instantiation):
        # Matchers never insert an identity that is already live or parked.
        if all(i.identity() != instantiation.identity() for i in known):
            known.append(instantiation)
            conflict_set.insert(instantiation)

    def test_a_reinserted_identity_is_not_its_old_record(self):
        conflict_set = ConflictSet()
        strategy = LexStrategy()
        rule = _RULES["solo"]
        old, middle, top = (
            Instantiation(rule, MatchToken([wme])) for wme in _WMES
        )
        for instantiation in (old, middle, top):
            conflict_set.insert(instantiation)
        assert conflict_set.select(strategy) is top  # all three ranked
        conflict_set.retract(old)  # its record stays, below the top
        again = Instantiation(rule, MatchToken([_WMES[0]]))
        conflict_set.insert(again)
        conflict_set.retract(top)
        assert conflict_set.select(strategy) is middle
        middle.mark_fired()
        assert conflict_set.select(strategy) is again

    def test_halted_firing_is_selectable_after_a_nested_select(self):
        """The RHS looked at the conflict set (as a nested run would)
        while its own instantiation was stamped fired, then failed: the
        halt policy's restored stamp must make it selectable again."""
        engine = RuleEngine()
        engine.add_rule("(p r (item) --> (call peek) (call boom))")
        seen = []
        engine.register_function("peek", lambda: seen.append(
            engine.conflict_set.select(engine.strategy)
        ))
        engine.register_function("boom", lambda: 1 / 0)
        engine.make("item")
        [instantiation] = engine.conflict_set.instantiations()
        with pytest.raises(FiringError):
            engine.step()
        assert seen == [None]
        assert engine.conflict_set.select(engine.strategy) is instantiation

    @pytest.mark.parametrize("select_every", [0, 7])
    def test_churn_below_the_top_does_not_accumulate(self, select_every):
        conflict_set = ConflictSet()
        strategy = LexStrategy()
        rule = _RULES["solo"]
        dominant = Instantiation(rule, MatchToken([WME("n", {}, 10 ** 6)]))
        conflict_set.insert(dominant)
        for tag in range(1, 10_001):
            passing = Instantiation(rule, MatchToken([WME("n", {}, tag)]))
            conflict_set.insert(passing)
            if select_every and tag % select_every == 0:
                assert conflict_set.select(strategy) is dominant
            conflict_set.retract(passing)
            assert conflict_set.ordering_size() <= 2 * len(conflict_set)
        assert conflict_set.select(strategy) is dominant
        assert conflict_set.ordering_size() == 1

    @pytest.mark.parametrize("k", [10, 100, 1000])
    def test_select_keys_only_the_changed_sois(self, k):
        conflict_set = ConflictSet()
        strategy = _CountingLex()
        sois = [_Soi(0) for _ in range(k)]
        for soi in sois:
            conflict_set.insert(SetInstantiation(_RULES["watch"], soi))
        conflict_set.select(strategy)  # ranks all k once
        strategy.calls = 0
        for cycle in range(50):
            # One SOI changes per cycle and overtakes the rest: only its
            # record is keyed, however many SOIs are live.
            soi = sois[cycle * 7 % k]
            tag = 10 + cycle
            soi.add(WME("n", {"v": tag}, tag), at_head=True)
            chosen = conflict_set.select(strategy)
            assert chosen.soi is soi
            chosen.mark_fired()
        assert strategy.calls == 50
        assert conflict_set.ordering_size() <= 2 * len(conflict_set)

