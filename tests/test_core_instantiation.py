"""Unit tests for core instantiation types and recency ordering."""

from repro.core.instantiation import (
    Instantiation,
    MatchToken,
    SetInstantiation,
    recency_key,
)
from repro.lang.parser import parse_rule
from repro.wm import WME


def wme(tag, **values):
    return WME("item", values, tag)


RULE = parse_rule("(p r (item ^v <v>) --> (halt))")
SET_RULE = parse_rule("(p s [item ^v <v>] --> (halt))")


class TestRecencyKey:
    def test_sorted_descending(self):
        assert recency_key([3, 9, 1]) == (9, 3, 1)

    def test_lex_comparison_semantics(self):
        # Higher most-recent tag dominates.
        assert recency_key([5, 1]) > recency_key([4, 3])
        # Ties fall through to the next tag.
        assert recency_key([5, 3]) > recency_key([5, 2])
        # Equal prefix: the longer list dominates (OPS5 LEX).
        assert recency_key([5, 3]) > recency_key([5])


class TestMatchToken:
    def test_accessors(self):
        token = MatchToken([wme(2, v=1), None, wme(5, v=2)])
        assert token.wme_at(0).time_tag == 2
        assert token.wme_at(1) is None
        assert token.time_tags() == (5, 2)
        assert len(token.wmes()) == 3

    def test_value_equality_and_hash(self):
        a = MatchToken([wme(1, v=1)])
        b = MatchToken([WME("item", {"v": 1}, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != MatchToken([wme(2, v=1)])


class TestInstantiation:
    def test_ordering_keys(self):
        inst = Instantiation(RULE, MatchToken([wme(4, v=1)]))
        assert inst.recency_key() == (4,)
        assert inst.mea_tag() == 4
        assert inst.specificity() == RULE.specificity()

    def test_refraction(self):
        inst = Instantiation(RULE, MatchToken([wme(1, v=1)]))
        assert inst.eligible()
        inst.mark_fired()
        assert not inst.eligible()

    def test_identity_stable(self):
        token = MatchToken([wme(1, v=1)])
        assert Instantiation(RULE, token).identity() == Instantiation(
            RULE, token
        ).identity()


class _FakeSoi:
    def __init__(self):
        self.tokens = []  # head first
        self.version = 0

    def __len__(self):
        return len(self.tokens)

    def head(self):
        return self.tokens[0] if self.tokens else None

    def snapshot(self):
        return list(self.tokens)

    def key_wme(self, level):
        return None

    def p_value(self, name):
        raise KeyError(name)


class TestSetInstantiation:
    def test_ranked_by_head_token(self):
        soi = _FakeSoi()
        soi.tokens = [MatchToken([wme(9, v=1)]), MatchToken([wme(2, v=1)])]
        inst = SetInstantiation(SET_RULE, soi)
        assert inst.recency_key() == (9,)
        assert inst.mea_tag() == 9

    def test_empty_soi_keys(self):
        inst = SetInstantiation(SET_RULE, _FakeSoi())
        assert inst.recency_key() == ()
        assert inst.mea_tag() == 0

    def test_refire_on_version_change(self):
        soi = _FakeSoi()
        soi.tokens = [MatchToken([wme(1, v=1)])]
        inst = SetInstantiation(SET_RULE, soi)
        assert inst.eligible()
        inst.mark_fired()
        assert not inst.eligible()
        soi.version += 1
        assert inst.eligible()

    def test_tokens_snapshot_is_a_copy(self):
        soi = _FakeSoi()
        soi.tokens = [MatchToken([wme(1, v=1)])]
        inst = SetInstantiation(SET_RULE, soi)
        snapshot = inst.tokens()
        soi.tokens.append(MatchToken([wme(2, v=2)]))
        assert len(snapshot) == 1
        assert len(inst.tokens()) == 2
