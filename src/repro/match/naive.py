"""The naive matcher: recompute every rule's matches after each change.

This is the reference oracle: no incremental state at all.  After every
working-memory event the full instantiation relation of every rule is
recomputed from scratch and diffed against the previous cycle.  It is
O(|WM|^k) per event for k-CE rules — exactly the cost Rete exists to
avoid — which the match-cost benchmark (experiment C6) quantifies.
"""

from __future__ import annotations

from repro.analysis import RuleAnalysis
from repro.core.instantiation import Instantiation, MatchToken
from repro.errors import RuleError
from repro.match.base import Matcher
from repro.match.grouping import SoiGrouper


class _RuleState:
    __slots__ = ("rule", "analysis", "grouper", "tokens", "instantiations")

    def __init__(self, rule, analysis, grouper):
        self.rule = rule
        self.analysis = analysis
        self.grouper = grouper
        self.tokens = set()
        self.instantiations = {}


class NaiveMatcher(Matcher):
    """Recompute-everything baseline matcher."""

    def __init__(self):
        super().__init__()
        self._rules = {}

    def add_rule(self, rule):
        if rule.name in self._rules:
            raise RuleError(f"rule {rule.name} already added")
        analysis = RuleAnalysis(rule)
        grouper = None
        if rule.is_set_oriented:
            grouper = SoiGrouper(rule, analysis, self._grouper_listener())
        self._rules[rule.name] = _RuleState(rule, analysis, grouper)
        if self.wm is not None:
            self._recompute(self._rules[rule.name])

    def _grouper_listener(self):
        return self.listener

    def remove_rule(self, rule_name):
        """Excise a rule and retract its live instantiations."""
        state = self._rules.pop(rule_name, None)
        if state is None:
            raise RuleError(f"no rule named {rule_name}")
        if state.grouper is not None:
            state.grouper.retract_all()
        else:
            for instantiation in state.instantiations.values():
                self.listener.retract(instantiation)

    def set_listener(self, listener):
        super().set_listener(listener)
        for state in self._rules.values():
            if state.grouper is not None:
                state.grouper.listener = listener

    def on_event(self, event):
        for state in self._rules.values():
            self._recompute(state)

    def on_batch(self, events):
        """One recomputation per rule per delta-set, not per event.

        Working memory already reflects the whole batch when the flush
        arrives, so a single diff against the previous token set gives
        the atomic net-delta result directly.
        """
        if not events:
            return
        self.match_stats.incr("naive_batches")
        for state in self._rules.values():
            self._recompute(state)

    # -- full recomputation -------------------------------------------------

    def _recompute(self, state):
        self.match_stats.incr("naive_recomputations")
        fresh = set(self._compute_tokens(state))
        stale = state.tokens - fresh
        new = fresh - state.tokens
        # Keep the ORIGINAL objects for surviving tokens: the grouper
        # removes by identity, so handing it freshly-built equal tokens
        # later would not match.
        state.tokens = (state.tokens - stale) | new
        if state.grouper is not None:
            for token in stale:
                state.grouper.remove_token(token)
            for token in sorted(new, key=lambda t: t.time_tags()):
                state.grouper.add_token(token)
            return
        for token in stale:
            instantiation = state.instantiations.pop(token, None)
            if instantiation is not None:
                self.listener.retract(instantiation)
        for token in new:
            instantiation = Instantiation(state.rule, token)
            state.instantiations[token] = instantiation
            self.listener.insert(instantiation)

    def _compute_tokens(self, state):
        """All full matches of *state*'s rule against current WM."""
        analyses = state.analysis.ce_analyses
        wmes = list(self.wm) if self.wm is not None else []
        results = []
        ms = self.match_stats

        def lookup_factory(partial):
            def lookup(level, attribute):
                wme = partial[level]
                return None if wme is None else wme.get(attribute)

            return lookup

        def descend(level, partial):
            if level == len(analyses):
                results.append(MatchToken(partial))
                return
            ce_analysis = analyses[level]
            lookup = lookup_factory(partial)
            if ce_analysis.ce.negated:
                for wme in wmes:
                    ok = ce_analysis.wme_passes_alpha(
                        wme
                    ) and ce_analysis.wme_passes_joins(wme, lookup)
                    ms.join_batch(None, 1, ok)
                    if ok:
                        return  # blocked
                descend(level + 1, partial + [None])
                return
            for wme in wmes:
                ok = ce_analysis.wme_passes_alpha(
                    wme
                ) and ce_analysis.wme_passes_joins(wme, lookup)
                ms.join_batch(None, 1, ok)
                if ok:
                    descend(level + 1, partial + [wme])

        descend(0, [])
        return results
