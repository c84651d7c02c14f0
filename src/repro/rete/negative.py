"""Negative nodes: support for negated condition elements ``-(...)``.

A negative node sits in the beta chain at its CE's level.  For each left
token it stores a :class:`~repro.rete.beta.NegToken` of its own
(``wme=None``) along with the *join results* — the alpha WMEs currently
satisfying the negated pattern against the token's bindings.  The token
propagates downstream only while it has no join results.

When a blocking WME appears the token *deactivates* (its downstream
descendants are deleted); when the last blocker disappears it
*reactivates* and propagates afresh.
"""

from __future__ import annotations

from repro.rete.beta import NegToken, TokenStore, TwoInputNode


class NegativeNode(TwoInputNode, TokenStore):
    """Beta node for one negated CE.

    Candidate selection is :class:`~repro.rete.beta.TwoInputNode`'s: a
    negated equality or range CE probes the alpha index on left
    activation and the node's own token index (a
    :class:`~repro.rete.beta.TokenStore` over ``items``, blocked tokens
    included) on right activation.  Candidate order, blocker order, and
    the join tests that pass are identical whichever access path runs.
    """

    __slots__ = ("items", "indexes", "ranges", "successors", "observers")
    kind = "neg"

    def __init__(self, left, amem, tests, level, network):
        self.items = {}
        self.indexes = {}
        self.ranges = {}
        self.successors = []
        self.observers = []
        super().__init__(left, amem, tests, level, network, store=self)

    def active_tokens(self):
        return [token for token in self.items if token.active]

    # -- left (token) side -------------------------------------------------

    def left_activate(self, parent_token):
        """A new token arrived in the left memory."""
        if not parent_token.active:
            return
        token = NegToken(parent_token, self, self.level)
        self.network.register_token(token)
        self.items[token] = None
        self._index_token(token)
        register = self.network.register_neg_result
        for wme in self.matching_wmes(token):
            register(wme, token)
        token.active = not token.neg_results
        self.stats.memory_size(self.stats_key, len(self.items))
        if token.active:
            self._propagate(token)

    def _propagate(self, token):
        for successor in self.successors:
            successor.left_activate(token)
        for observer in self.observers:
            observer.token_added(token)

    def remove_token(self, token):
        """Deletion-cascade hook; also releases this token's join results."""
        self.items.pop(token, None)
        self._unindex_token(token)
        if token.active:
            for observer in self.observers:
                observer.token_removed(token)
        for wme in token.neg_results:
            self.network.unregister_neg_result(wme, token)
        token.neg_results.clear()

    # -- right (alpha) side ----------------------------------------------

    def right_activate(self, wme):
        """A WME joined the negated pattern's alpha memory."""
        for token in self.matching_tokens(wme):
            self.network.register_neg_result(wme, token)
            if token.active:
                self._deactivate(token)

    def right_activate_batch(self, wmes):
        """Batch entry point: negation is processed per WME.

        Blocking is not set-oriented — each new blocker may deactivate
        tokens and unwind downstream structure, so the per-event path is
        already the precise amount of work.
        """
        for wme in wmes:
            self.right_activate(wme)

    def release_blocker(self, wme, token):
        """*wme* (a join result of *token*) was removed from WM."""
        del token.neg_results[wme]
        if not token.neg_results and not token.active:
            token.active = True
            self._propagate(token)

    def _deactivate(self, token):
        token.active = False
        # Downstream matches built on this token are no longer valid.
        while token.last_child is not None:
            self.network.delete_token(token.last_child)
        for observer in self.observers:
            observer.token_removed(token)

    def share_key(self):
        return ("neg", id(self.amem), tuple(test.key() for test in self.tests))

    def __repr__(self):
        return f"NegativeNode(level={self.level}, {len(self.items)} tokens)"
