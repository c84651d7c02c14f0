"""Unit tests for the terminal production nodes."""

import pytest

from repro.lang.parser import parse_rule
from repro.rete.pnode import PNode, SetPNode


class _FakeNetwork:
    def __init__(self, listener):
        self.listener = listener


class _Listener:
    def __init__(self):
        self.events = []

    def insert(self, inst):
        self.events.append(("+", inst))

    def retract(self, inst):
        self.events.append(("-", inst))

    def reposition(self, inst):
        self.events.append(("time", inst))


class _Token:
    def wme_at(self, level):
        return None

    def wmes(self):
        return ()

    def time_tags(self):
        return ()


RULE = parse_rule("(p r (a) --> (halt))")
SET_RULE = parse_rule("(p s [a] --> (halt))")


class TestPNode:
    def test_add_remove_lifecycle(self):
        listener = _Listener()
        pnode = PNode(RULE, _FakeNetwork(listener))
        token = _Token()
        pnode.token_added(token)
        assert len(pnode) == 1
        pnode.token_removed(token)
        assert len(pnode) == 0
        assert [sign for sign, _ in listener.events] == ["+", "-"]

    def test_unknown_token_removal_is_noop(self):
        listener = _Listener()
        pnode = PNode(RULE, _FakeNetwork(listener))
        pnode.token_removed(_Token())
        assert listener.events == []


class _Soi:
    version = 0

    def head(self):
        return None

    def key_wme(self, level):
        return None

    def p_value(self, name):
        raise KeyError(name)


class TestSetPNode:
    def test_mark_protocol(self):
        listener = _Listener()
        node = SetPNode(SET_RULE, _FakeNetwork(listener))
        soi = _Soi()
        node.receive("+", soi)
        node.receive("time", soi)
        node.receive("-", soi)
        assert [sign for sign, _ in listener.events] == ["+", "time", "-"]
        assert len(node) == 0

    def test_time_for_unknown_soi_is_noop(self):
        listener = _Listener()
        node = SetPNode(SET_RULE, _FakeNetwork(listener))
        node.receive("time", _Soi())
        node.receive("-", _Soi())
        assert listener.events == []

    def test_unknown_mark_raises(self):
        node = SetPNode(SET_RULE, _FakeNetwork(_Listener()))
        with pytest.raises(ValueError):
            node.receive("??", _Soi())
