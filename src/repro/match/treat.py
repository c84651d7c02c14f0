"""TREAT (Miranker 1986): alpha memories only, no stored partial joins.

TREAT keeps the per-CE alpha memories but no beta memories: when a WME
arrives, new instantiations are computed by a join *seeded* with that
WME in each CE slot it satisfies; when a WME leaves, the instantiations
containing it are retracted directly from the conflict set.  The trade
is recompute-on-add versus Rete's stored partial matches — the classic
match-algorithm comparison the paper cites (experiment C6 measures it).

Negated CEs: a new blocker retracts the instantiations it now blocks; a
removed blocker triggers re-derivation of the rule's matches (we use
re-derivation instead of Miranker's negation counts; behaviourally
identical, simpler, and only exercised on blocker removal).

Every rule ends in the terminal nodes Rete uses
(:func:`~repro.rete.pnode.build_terminal`): a P-node, or for a
set-oriented rule an S-node running the paper's Figure 3, staged once
per delta-set — demonstrating that the paper's constructs are not
Rete-specific.
"""

from __future__ import annotations

from repro.analysis import RuleAnalysis
from repro.core.instantiation import MatchToken
from repro.errors import RuleError
from repro.match.base import Matcher
from repro.rete.pnode import build_terminal


class _TreatRule:
    __slots__ = (
        "rule",
        "analysis",
        "production",
        "terminal",
        "amems",
        "tokens",
        "tokens_by_wme",
    )

    def __init__(self, rule, analysis, production, terminal):
        self.rule = rule
        self.analysis = analysis
        self.production = production
        self.terminal = terminal
        self.amems = [dict() for _ in analysis.ce_analyses]
        self.tokens = set()
        self.tokens_by_wme = {}


class TreatMatcher(Matcher):
    """The TREAT match algorithm behind the common Matcher contract."""

    def __init__(self):
        super().__init__()
        self._rules = {}

    def add_rule(self, rule):
        if rule.name in self._rules:
            raise RuleError(f"rule {rule.name} already added")
        analysis = RuleAnalysis(rule)
        state = _TreatRule(
            rule, analysis, *build_terminal(rule, analysis, self)
        )
        self._rules[rule.name] = state
        if self.wm is not None:
            for wme in self.wm:
                self._add_to_amems(state, wme)
            with self.staged():
                for token in self._derive(state):
                    self._insert_token(state, token)

    def remove_rule(self, rule_name):
        """Excise a rule and retract its live instantiations."""
        state = self._rules.pop(rule_name, None)
        if state is None:
            raise RuleError(f"no rule named {rule_name}")
        self.snodes.pop(rule_name, None)
        state.production.retract_all()

    # -- events ------------------------------------------------------------

    def on_event(self, event):
        if event.is_add:
            self._on_add(event.wme)
        else:
            self._on_remove(event.wme)

    def _on_add(self, wme):
        for state in self._rules.values():
            levels = self._add_to_amems(state, wme)
            for level in levels:
                ce_analysis = state.analysis.ce_analyses[level]
                if ce_analysis.ce.negated:
                    self._retract_now_blocked(state, level, wme)
                else:
                    self.match_stats.incr("treat_seeded_joins")
                    for token in self._derive(state, level, wme):
                        if token not in state.tokens:
                            self._insert_token(state, token)

    def on_batch(self, events):
        """Process one flushed delta-set rule by rule, set-oriented.

        Per rule: all alpha memories absorb the whole delta-set first,
        then retractions (removed WMEs, newly blocked tokens) run, then
        one seeded join per surviving positive add — seeded joins see
        the complete batch in the amems, and the ``token not in
        state.tokens`` guard keeps cross-seeded duplicates out.  A
        single re-derivation covers *all* negated-level removals,
        instead of one per removal event.  The S-nodes are staged
        across all rules, so each decides once per touched SOI.
        """
        removes = [e.wme for e in events if e.is_remove]
        adds = [e.wme for e in events if e.is_add]
        with self.staged():
            for state in self._rules.values():
                ce_analyses = state.analysis.ce_analyses
                removed_negated = False
                for wme in removes:
                    for level, amem in enumerate(state.amems):
                        if wme in amem:
                            del amem[wme]
                            if ce_analyses[level].ce.negated:
                                removed_negated = True
                seeds = []
                blockers = []
                for wme in adds:
                    for level in self._add_to_amems(state, wme):
                        if ce_analyses[level].ce.negated:
                            blockers.append((level, wme))
                        else:
                            seeds.append((level, wme))
                for wme in removes:
                    for token in list(state.tokens_by_wme.get(wme, ())):
                        self._retract_token(state, token)
                    state.tokens_by_wme.pop(wme, None)
                for level, wme in blockers:
                    self._retract_now_blocked(state, level, wme)
                for level, wme in seeds:
                    self.match_stats.incr("treat_seeded_joins")
                    for token in self._derive(state, level, wme):
                        if token not in state.tokens:
                            self._insert_token(state, token)
                if removed_negated:
                    for token in self._derive(state):
                        if token not in state.tokens:
                            self._insert_token(state, token)

    def _on_remove(self, wme):
        for state in self._rules.values():
            removed_negated_levels = []
            for level, amem in enumerate(state.amems):
                if wme in amem:
                    del amem[wme]
                    if state.analysis.ce_analyses[level].ce.negated:
                        removed_negated_levels.append(level)
            for token in list(state.tokens_by_wme.get(wme, ())):
                self._retract_token(state, token)
            state.tokens_by_wme.pop(wme, None)
            if removed_negated_levels:
                # A removed blocker may release matches: re-derive.
                for token in self._derive(state):
                    if token not in state.tokens:
                        self._insert_token(state, token)

    # -- helpers -----------------------------------------------------------

    def _add_to_amems(self, state, wme):
        levels = []
        for level, ce_analysis in enumerate(state.analysis.ce_analyses):
            if ce_analysis.wme_passes_alpha(wme):
                state.amems[level][wme] = None
                levels.append(level)
        return levels

    def _insert_token(self, state, token):
        state.tokens.add(token)
        for wme in token.wmes():
            if wme is not None:
                state.tokens_by_wme.setdefault(wme, set()).add(token)
        state.terminal.token_added(token)

    def _retract_token(self, state, token):
        state.tokens.discard(token)
        for wme in token.wmes():
            if wme is not None:
                bucket = state.tokens_by_wme.get(wme)
                if bucket is not None:
                    bucket.discard(token)
        state.terminal.token_removed(token)

    def _retract_now_blocked(self, state, neg_level, wme):
        ce_analysis = state.analysis.ce_analyses[neg_level]
        ms = self.match_stats
        for token in list(state.tokens):
            def lookup(level, attribute, token=token):
                bound = token.wme_at(level)
                return None if bound is None else bound.get(attribute)

            blocked = ce_analysis.wme_passes_joins(wme, lookup)
            ms.join_batch(None, 1, blocked)
            if blocked:
                self._retract_token(state, token)

    def _derive(self, state, seed_level=None, seed_wme=None):
        """All full matches; seeded, only those with *seed_wme* in CE
        *seed_level*.  Unseeded is back-fill and negation re-derivation."""
        analyses = state.analysis.ce_analyses
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
                for wme in state.amems[level]:
                    ok = ce_analysis.wme_passes_joins(wme, lookup)
                    ms.join_batch(None, 1, ok)
                    if ok:
                        return
                descend(level + 1, partial + [None])
                return
            candidates = (
                [seed_wme] if level == seed_level else state.amems[level]
            )
            for wme in candidates:
                ok = ce_analysis.wme_passes_joins(wme, lookup)
                ms.join_batch(None, 1, ok)
                if ok:
                    descend(level + 1, partial + [wme])

        descend(0, [])
        return results
