"""SOI grouping for the non-Rete matchers.

TREAT, DIPS and the naive matcher produce flat streams of regular match
tokens.  For set-oriented rules those tokens must be aggregated into
SOIs with the same semantics the S-node provides: grouped by scalar CEs
and ``:scalar`` values, tokens ordered like the conflict set, ``:test``
evaluated over incremental aggregates, and conflict-set
``+``/``-``/``time`` deltas emitted on transitions.

:class:`SoiGrouper` puts the S-node's own
:class:`~repro.rete.snode.GammaMemory` behind a conflict-set listener,
so the matchers cannot drift apart semantically — differential tests
(`tests/match/test_equivalence.py`) rely on this.
"""

from __future__ import annotations

from repro.core.instantiation import SetInstantiation
from repro.rete.snode import ACTIVE, CHG_DELETE, INACTIVE, GammaMemory


class SoiGrouper:
    """Maintains a set-oriented rule's SOIs over a mutable token stream."""

    def __init__(self, rule, analysis, listener):
        self.rule = rule
        self.listener = listener
        self.memory = GammaMemory(rule, analysis)
        self.sois = self.memory.sois
        self._instantiations = {}

    # -- token stream -------------------------------------------------------

    def add_token(self, token):
        soi, _ = self.memory.add(token)
        self._reconcile(soi)

    def remove_token(self, token):
        placed = self.memory.remove(token)
        if placed is None:
            return
        soi, chg = placed
        if chg == CHG_DELETE:
            self._deactivate(soi)
        else:
            self._reconcile(soi)

    def retract_all(self):
        """Retract every live SOI from the listener (rule excision)."""
        for soi in list(self.sois.values()):
            self._deactivate(soi)

    # -- internals ------------------------------------------------------------

    def _reconcile(self, soi):
        passes = self.memory.passes(soi)
        if passes and soi.status == INACTIVE:
            soi.status = ACTIVE
            instantiation = SetInstantiation(self.rule, soi)
            self._instantiations[id(soi)] = instantiation
            self.listener.insert(instantiation)
        elif not passes and soi.status == ACTIVE:
            self._deactivate(soi)
        elif passes and soi.status == ACTIVE:
            instantiation = self._instantiations.get(id(soi))
            if instantiation is not None:
                self.listener.reposition(instantiation)

    def _deactivate(self, soi):
        if soi.status == ACTIVE:
            soi.status = INACTIVE
            instantiation = self._instantiations.pop(id(soi), None)
            if instantiation is not None:
                self.listener.retract(instantiation)
