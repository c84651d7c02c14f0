"""Terminal production nodes, shared by every matcher.

:class:`PNode` terminates a regular rule: every token reaching it is one
instantiation, inserted into / retracted from the conflict set.

:class:`SetPNode` terminates a set-oriented rule.  It consumes the
``+`` / ``-`` / ``time`` marks emitted by the rule's S-node (paper §5):
``+`` adds the SOI to the conflict set, ``-`` removes it, and ``time``
repositions it — "time tokens represent SOIs that are currently in the
conflict set, but must be repositioned".  Because only a pointer to the
live SOI is passed, γ-memory updates to an active SOI transparently
update the conflict-set entry.

:func:`build_terminal` builds them for Rete, naive and DIPS
alike, so Figure 3's decide stage exists once: a matcher only feeds
tokens to the terminal it gets back.
"""

from __future__ import annotations

from repro.core.instantiation import Instantiation, SetInstantiation
from repro.rete.snode import SNode


def build_terminal(rule, analysis, matcher, strict_paper_decide=False):
    """The terminal nodes of *rule* under *matcher*: ``(production,
    terminal)``.

    A tuple rule's terminal is its :class:`PNode`; a set-oriented rule's
    is an :class:`~repro.rete.snode.SNode` emitting into a
    :class:`SetPNode`, registered in ``matcher.snodes`` so
    :meth:`~repro.match.base.Matcher.staged` and ``set_stats`` reach it.
    The matcher feeds ``terminal.token_added`` / ``token_removed`` and
    excises the rule with ``production.retract_all()``; both nodes read
    ``matcher.listener`` when they emit.
    """
    if not rule.is_set_oriented:
        production = PNode(rule, matcher)
        return production, production
    production = SetPNode(rule, matcher)
    snode = matcher.snodes[rule.name] = SNode(
        rule,
        analysis,
        emit=production.receive,
        strict_paper_decide=strict_paper_decide,
        stats=matcher.match_stats,
    )
    return production, snode


class _Production:
    """What both production nodes share: the live instantiations, keyed
    by the identity of the token or SOI they stand for."""

    __slots__ = ("rule", "matcher", "_instantiations")

    def __init__(self, rule, matcher):
        self.rule = rule
        self.matcher = matcher
        self._instantiations = {}

    def retract_all(self):
        """Retract every live instantiation (rule excision)."""
        instantiations, self._instantiations = self._instantiations, {}
        retract = self.matcher.listener.retract
        for instantiation in instantiations.values():
            retract(instantiation)

    def __len__(self):
        return len(self._instantiations)


class PNode(_Production):
    """Terminal node of a regular (tuple-oriented) rule."""

    __slots__ = ()

    def token_added(self, token):
        instantiation = Instantiation(self.rule, token)
        self._instantiations[id(token)] = instantiation
        self.matcher.listener.insert(instantiation)

    def token_removed(self, token):
        instantiation = self._instantiations.pop(id(token), None)
        if instantiation is not None:
            self.matcher.listener.retract(instantiation)

    def __repr__(self):
        return f"PNode({self.rule.name}, {len(self._instantiations)} insts)"


class SetPNode(_Production):
    """Terminal node of a set-oriented rule, fed by an S-node."""

    __slots__ = ()

    def receive(self, mark, soi):
        """The S-node's emit hook: mark is ``+``, ``-`` or ``time``."""
        if mark == "+":
            instantiation = SetInstantiation(self.rule, soi)
            self._instantiations[id(soi)] = instantiation
            self.matcher.listener.insert(instantiation)
        elif mark == "-":
            instantiation = self._instantiations.pop(id(soi), None)
            if instantiation is not None:
                self.matcher.listener.retract(instantiation)
        elif mark == "time":
            instantiation = self._instantiations.get(id(soi))
            if instantiation is not None:
                self.matcher.listener.reposition(instantiation)
        else:
            raise ValueError(f"unknown S-node mark {mark!r}")

    def __repr__(self):
        return (
            f"SetPNode({self.rule.name}, {len(self._instantiations)} SOIs)"
        )
