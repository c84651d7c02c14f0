"""The Rete network compiler and runtime event dispatcher.

:class:`ReteNetwork` implements the :class:`repro.match.base.Matcher`
contract.  Compilation walks each rule's CEs left to right, sharing
alpha memories by test set and beta prefixes by (alpha memory, join
tests) — the sharing applies identically to set-oriented and regular
rules, so (per the paper) "all of the advantages of Rete such as shared
tests remain, even between set-oriented and non-set-oriented rules".
A rule with any set-oriented CE gets an S-node spliced between its last
memory and its P-node; nothing upstream changes.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.analysis import RuleAnalysis
from repro.engine.stats import NULL_STATS
from repro.errors import RuleError
from repro.match.base import Matcher
from repro.rete.alpha import AlphaNetwork
from repro.rete.beta import BetaMemory, DummyToken, JoinNode
from repro.rete.negative import NegativeNode
from repro.rete.pnode import build_terminal


class ReteNetwork(Matcher):
    """The extended Rete match network."""

    def __init__(self, strict_paper_decide=False, share_alpha=True,
                 share_beta=True, indexed_joins=True, batched=True,
                 stats=None):
        super().__init__()
        self.match_stats = stats if stats is not None else NULL_STATS
        self.share_alpha = share_alpha
        self.share_beta = share_beta
        # Probe equality joins through hash indexes and range joins
        # through ordered ones instead of scanning memories (disable for
        # the ablation benchmark).
        self.indexed_joins = indexed_joins
        # Process flushed delta-sets set-oriented (grouped alpha/join
        # propagation, staged S-nodes); False replays them per event —
        # the reference semantics the property tests compare against.
        self.batched = batched
        self._private_counter = 0
        self.alpha = AlphaNetwork(stats=self.match_stats)
        self.dummy_top = BetaMemory(None, -1, stats=self.match_stats)
        self._beta_nodes = [self.dummy_top]
        self._dummy_token = DummyToken()
        self.dummy_top.items[self._dummy_token] = None
        self.strict_paper_decide = strict_paper_decide
        self.productions = {}
        self._terminals = {}  # rule name -> (host memory, observer)
        # WME -> the newest token holding it, the head of that WME's
        # token chain (``Token.wme_next`` leads to older ones)
        self._wme_tokens = {}
        # blocker WME -> {negative-node token: None}, in blocking order
        self._wme_neg_results = {}

    def set_stats(self, stats):
        """Swap in a (possibly live) stats hook, re-registering all nodes."""
        super().set_stats(stats)
        self.alpha.attach_stats(stats)
        for node in self._beta_nodes:
            node.attach_stats(stats)

    # -- bookkeeping used by the node classes ------------------------------

    def register_token(self, token):
        """Count *token* and link it in at the head of its WME's chain."""
        self.match_stats.token_created()
        wme = token.wme
        if wme is not None:
            heads = self._wme_tokens
            older = heads.get(wme)
            if older is not None:
                older.wme_prev = token
                token.wme_next = older
            heads[wme] = token

    def register_neg_result(self, wme, token):
        """*wme* now blocks *token*: record it on both sides, O(1)."""
        token.neg_results[wme] = None
        self._wme_neg_results.setdefault(wme, {})[token] = None

    def unregister_neg_result(self, wme, token):
        """A deleted *token* lets go of its blocker *wme*."""
        entries = self._wme_neg_results[wme]
        del entries[token]
        if not entries:
            del self._wme_neg_results[wme]

    def delete_token(self, token):
        """Delete *token* and all its descendants (newest child first)."""
        while token.last_child is not None:
            self.delete_token(token.last_child)
        node = token.node
        if node is None:
            return
        token.node = None
        self.match_stats.token_deleted()
        node.remove_token(token)
        if token.parent is not None:
            token.unlink()
        wme = token.wme
        if wme is not None:
            older, newer = token.wme_next, token.wme_prev
            if newer is not None:
                newer.wme_next = older
            elif older is not None:
                self._wme_tokens[wme] = older
            else:
                del self._wme_tokens[wme]
            if older is not None:
                older.wme_prev = newer
            token.wme_prev = token.wme_next = None

    # -- rule compilation ----------------------------------------------------

    def add_rule(self, rule):
        if rule.name in self.productions:
            raise RuleError(f"rule {rule.name} already in the network")
        analysis = RuleAnalysis(rule)
        current = self.dummy_top
        for ce_analysis in analysis.ce_analyses:
            amem = self._alpha_memory(ce_analysis)
            if ce_analysis.ce.negated:
                current = self._attach_negative(current, amem, ce_analysis)
            else:
                current = self._attach_join(current, amem, ce_analysis)
        production, terminal = build_terminal(
            rule, analysis, self, self.strict_paper_decide
        )
        self.productions[rule.name] = production
        current.observers.append(terminal)
        self._terminals[rule.name] = (current, terminal)
        # Backfill from the live beta memory through the staged S-node
        # path: a set-oriented rule added over a populated WM must see
        # exactly one test/decide per touched SOI — the same counters
        # and firings a fresh build over the same WM produces — not one
        # decide per token.
        batching = self.batched and not self.strict_paper_decide
        with self.staged() if batching else nullcontext():
            for token in current.active_tokens():
                terminal.token_added(token)
        return analysis

    def _alpha_memory(self, ce_analysis):
        """Fetch/create the alpha memory, back-filling a fresh one."""
        before = self.alpha.memory_count
        key_extra = None
        if not self.share_alpha:
            self._private_counter += 1
            key_extra = self._private_counter
        amem = self.alpha.memory_for(ce_analysis, key_extra)
        created = self.alpha.memory_count != before
        if created and self.wm is not None:
            # No successors yet, so direct adds cannot double-propagate.
            passes = amem.passes
            for wme in self.wm:
                if passes(wme):
                    amem.add(wme)
        return amem

    def _attach_join(self, left, amem, ce_analysis):
        key = (id(amem), tuple(t.key() for t in ce_analysis.join_tests))
        if self.share_beta:
            for successor in left.successors:
                if (
                    isinstance(successor, JoinNode)
                    and successor.share_key() == key
                ):
                    return successor.output
        join = JoinNode(
            left, amem, ce_analysis.join_tests, ce_analysis.level, self
        )
        join.output = BetaMemory(join, ce_analysis.level,
                                 stats=self.match_stats)
        self._beta_nodes.extend((join, join.output))
        left.successors.append(join)
        # Deeper joins must right-activate before shallower ones when a
        # WME feeds several CEs of one rule (Doorenbos's ordering trick),
        # so new successors go to the FRONT of the alpha memory's list.
        amem.successors.insert(0, join)
        for token in left.active_tokens():
            join.left_activate(token)
        return join.output

    def _attach_negative(self, left, amem, ce_analysis):
        key = (
            "neg",
            id(amem),
            tuple(t.key() for t in ce_analysis.join_tests),
        )
        if self.share_beta:
            for successor in left.successors:
                if (
                    isinstance(successor, NegativeNode)
                    and successor.share_key() == key
                ):
                    return successor
        node = NegativeNode(
            left, amem, ce_analysis.join_tests, ce_analysis.level, self
        )
        self._beta_nodes.append(node)
        left.successors.append(node)
        amem.successors.insert(0, node)
        for token in left.active_tokens():
            node.left_activate(token)
        return node

    def remove_rule(self, rule_name):
        """Excise a rule: detach its terminal, retract its instantiations.

        Shared alpha/beta structure stays in place (it may serve other
        rules; unused remainders are harmless).
        """
        if rule_name not in self.productions:
            raise RuleError(f"no rule named {rule_name} in the network")
        memory, observer = self._terminals.pop(rule_name)
        memory.observers.remove(observer)
        self.snodes.pop(rule_name, None)
        self.productions.pop(rule_name).retract_all()

    # -- event dispatch ---------------------------------------------------------

    def on_event(self, event):
        if event.is_add:
            self.alpha.add_wme(event.wme)
        else:
            self._remove_batch((event.wme,))

    def _remove_batch(self, wmes):
        """Retract *wmes* as a delta-set: out of the alpha memories at
        once, then each one's token cascade and blocker release, in
        order, so a released token's joins miss the whole set."""
        self.alpha.remove_batch(wmes)
        wme_tokens = self._wme_tokens
        for wme in wmes:
            # Delete the chain's head until the chain is empty.  A
            # self-join puts one WME in a token and in that token's
            # descendant, so one cascade can unlink several members;
            # re-reading the head holds no link across a cascade.
            token = wme_tokens.get(wme)
            while token is not None:
                self.delete_token(token)
                token = wme_tokens.get(wme)
            for token in list(self._wme_neg_results.pop(wme, ())):
                if token.node is not None:
                    token.node.release_blocker(wme, token)

    def on_batch(self, events):
        """Propagate one flushed delta-set set-oriented.

        Removes run first, as one delta-set (:meth:`_remove_batch`),
        then the surviving adds flow through the alpha network as
        grouped delta-sets.  Every S-node stages token arrivals and
        departures for the whole batch and runs its test/decide stages
        once per touched SOI at flush.  The outcome — conflict set,
        firing order, refire eligibility — is the atomic net-delta
        semantics the per-event replay of the same flushed batch
        produces.
        """
        if not self.batched or self.strict_paper_decide:
            # strict_paper_decide is a per-event ablation of Figure 3's
            # literal decide table; batching would paper over it.
            for event in events:
                self.on_event(event)
            return
        with self.staged():
            adds, removes = [], []
            for event in events:
                (adds if event.is_add else removes).append(event.wme)
            if removes:
                self._remove_batch(removes)
            if adds:
                self.alpha.add_batch(adds)

    # -- inspection --------------------------------------------------------------

    def snode_for(self, rule_name):
        """The S-node of a set-oriented rule (KeyError if none)."""
        return self.snodes[rule_name]

    def production_node(self, rule_name):
        return self.productions[rule_name]

    def __repr__(self):
        return (
            f"ReteNetwork({len(self.productions)} rules, "
            f"{self.alpha.memory_count} alpha memories)"
        )
