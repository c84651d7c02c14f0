"""The naive matcher: recompute every rule's matches after each change.

This is the reference oracle: no incremental state at all.  After every
working-memory event the full instantiation relation of every rule is
recomputed from scratch and diffed against the previous cycle.  It is
O(|WM|^k) per event for k-CE rules — exactly the cost Rete exists to
avoid — which the match-cost benchmark (experiment C6) quantifies.
"""

from __future__ import annotations

from repro.analysis import RuleAnalysis
from repro.core.instantiation import MatchToken
from repro.errors import RuleError
from repro.match.base import Matcher
from repro.rete.pnode import build_terminal


class _RuleState:
    __slots__ = ("rule", "analysis", "production", "terminal", "tokens")

    def __init__(self, rule, analysis, production, terminal):
        self.rule = rule
        self.analysis = analysis
        self.production = production
        self.terminal = terminal
        self.tokens = set()


class NaiveMatcher(Matcher):
    """Recompute-everything baseline matcher."""

    def __init__(self):
        super().__init__()
        self._rules = {}

    def add_rule(self, rule):
        if rule.name in self._rules:
            raise RuleError(f"rule {rule.name} already added")
        analysis = RuleAnalysis(rule)
        state = self._rules[rule.name] = _RuleState(
            rule, analysis, *build_terminal(rule, analysis, self)
        )
        if self.wm is not None:
            with self.staged():
                self._recompute(state)

    def remove_rule(self, rule_name):
        """Excise a rule and retract its live instantiations."""
        state = self._rules.pop(rule_name, None)
        if state is None:
            raise RuleError(f"no rule named {rule_name}")
        self.snodes.pop(rule_name, None)
        state.production.retract_all()

    def on_event(self, event):
        for state in self._rules.values():
            self._recompute(state)

    def on_batch(self, events):
        """One recomputation per rule per delta-set, not per event.

        Working memory already reflects the whole batch when the flush
        arrives, so a single diff against the previous token set gives
        the atomic net-delta result directly, and the staged S-nodes
        decide once per touched SOI.
        """
        if not events:
            return
        self.match_stats.incr("naive_batches")
        with self.staged():
            for state in self._rules.values():
                self._recompute(state)

    # -- full recomputation -------------------------------------------------

    def _recompute(self, state):
        self.match_stats.incr("naive_recomputations")
        fresh = set(self._compute_tokens(state))
        stale = state.tokens - fresh
        new = fresh - state.tokens
        # Keep the ORIGINAL objects for surviving tokens: the terminal
        # nodes remove by identity, so handing them freshly-built equal
        # tokens later would not match.
        state.tokens = (state.tokens - stale) | new
        for token in stale:
            state.terminal.token_removed(token)
        for token in sorted(new, key=MatchToken.time_tags):
            state.terminal.token_added(token)

    def _compute_tokens(self, state):
        """All full matches of *state*'s rule against current WM."""
        wmes = list(self.wm) if self.wm is not None else []
        results = []
        self._descend(state.analysis.ce_analyses, wmes, 0, [], results)
        return results

    def _descend(self, analyses, wmes, level, partial, results):
        """Extend *partial*, the WMEs matching CEs before *level*, by
        every WME of *wmes* that matches the rest, onto *results*.  A
        method, not a nested function calling itself, so a match builds
        no reference cycle."""
        if level == len(analyses):
            results.append(MatchToken(partial))
            return
        ms = self.match_stats
        ce_analysis = analyses[level]

        def lookup(at, attribute):
            wme = partial[at]
            return None if wme is None else wme.get(attribute)

        if ce_analysis.ce.negated:
            for wme in wmes:
                ok = ce_analysis.wme_passes_alpha(
                    wme
                ) and ce_analysis.wme_passes_joins(wme, lookup)
                ms.join_batch(None, 1, ok)
                if ok:
                    return  # blocked
            self._descend(analyses, wmes, level + 1, partial + [None],
                          results)
            return
        for wme in wmes:
            ok = ce_analysis.wme_passes_alpha(
                wme
            ) and ce_analysis.wme_passes_joins(wme, lookup)
            ms.join_batch(None, 1, ok)
            if ok:
                self._descend(analyses, wmes, level + 1, partial + [wme],
                              results)
