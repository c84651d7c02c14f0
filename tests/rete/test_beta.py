"""Unit tests for tokens, beta memories and batched joins."""

from repro import RuleEngine
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork
from repro.rete.beta import BetaMemory, DummyToken, Token
from repro.wm import WME


def wme(tag, **values):
    return WME("c", values, tag)


def chain(*wmes):
    """Build a token chain over *wmes* (None = negated level)."""
    token = DummyToken()
    for level, element in enumerate(wmes):
        token = Token(token, element, None, level)
    return token


class TestTokenChains:
    def test_wme_at_walks_levels(self):
        token = chain(wme(1), wme(2), wme(3))
        assert token.wme_at(0).time_tag == 1
        assert token.wme_at(2).time_tag == 3
        assert token.wme_at(9) is None

    def test_negated_level_is_none(self):
        token = chain(wme(1), None, wme(3))
        assert token.wme_at(1) is None
        assert token.wmes() == (
            token.wme_at(0), None, token.wme_at(2)
        )

    def test_time_tags_sorted_desc_and_skip_negated(self):
        token = chain(wme(2), None, wme(7))
        assert token.time_tags() == (7, 2)

    def test_time_tags_cached(self):
        token = chain(wme(1))
        assert token.time_tags() is token.time_tags()

    def test_lookup_resolves_bindings(self):
        token = chain(wme(1, x=5), wme(2, y="s"))
        assert token.lookup(0, "x") == 5
        assert token.lookup(1, "y") == "s"
        assert token.lookup(0, "missing") == "nil"

    def test_lookup_negated_level_is_none(self):
        token = chain(wme(1), None)
        assert token.lookup(1, "x") is None

    def test_children_registered_on_parent(self):
        parent = chain(wme(1))
        child = Token(parent, wme(2), None, 1)
        assert parent.last_child is child
        assert child.prev_sibling is None and child.next_sibling is None

    def test_unlink_is_positional_and_keeps_sibling_order(self):
        parent = chain(wme(1))
        first, middle, last = (
            Token(parent, wme(tag), None, 1) for tag in (2, 3, 4)
        )
        middle.unlink()
        assert (first.next_sibling, last.prev_sibling) == (last, first)
        assert middle.prev_sibling is None and middle.next_sibling is None
        last.unlink()
        assert parent.last_child is first and first.next_sibling is None
        first.unlink()
        assert parent.last_child is None

    def test_dummy_token_properties(self):
        dummy = DummyToken()
        assert dummy.level == -1
        assert dummy.wmes() == ()
        assert dummy.time_tags() == ()
        assert dummy.wme_at(0) is None


class _FakeNetwork:
    def __init__(self):
        self.registered = []

    def register_token(self, token):
        self.registered.append(token)


class TestBetaMemory:
    def test_left_activate_stores_and_notifies(self):
        memory = BetaMemory(None, 0)
        events = []

        class Observer:
            def token_added(self, token):
                events.append(("+", token))

            def token_removed(self, token):
                events.append(("-", token))

        memory.observers.append(Observer())
        network = _FakeNetwork()
        token = memory.left_activate(DummyToken(), wme(1), network)
        assert token in memory.items
        assert network.registered == [token]
        memory.remove_token(token)
        assert [sign for sign, _ in events] == ["+", "-"]
        assert len(memory) == 0

    def test_active_tokens_lists_all(self):
        memory = BetaMemory(None, 0)
        network = _FakeNetwork()
        first = memory.left_activate(DummyToken(), wme(1), network)
        second = memory.left_activate(DummyToken(), wme(2), network)
        assert memory.active_tokens() == [first, second]


class TestBatchedJoinNaN:
    def test_shared_nan_object_never_joins_itself(self):
        """NaN is a legal OPS5 float and equals nothing, itself included.

        A batched right activation finds the token bound to the very same
        NaN object in the bucket (dict lookup succeeds by identity), but
        must still run ``values_equal`` on it rather than count the bucket
        hit as a passed ``=`` test.
        """
        nan = float("nan")
        sizes = {}
        for name, matcher in (
            ("batched", ReteNetwork()),
            ("per-event", ReteNetwork(batched=False)),
            ("naive", NaiveMatcher()),
        ):
            engine = RuleEngine(matcher=matcher)
            engine.load("(p same (a ^v <x>) (b ^v <x>) --> (halt))")
            engine.make("a", v=nan)
            engine.load_facts([("b", {"v": nan})])
            sizes[name] = len(engine.conflict_set)
        assert sizes == {"batched": 0, "per-event": 0, "naive": 0}
