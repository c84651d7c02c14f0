"""The beta network: tokens, beta memories, and join nodes.

Tokens form the classic parent-linked chains: a token at level *i* pairs
its parent (levels ``< i``) with the WME matching CE *i* (``None`` at a
negated level).  Deletion is tree-structured — removing a WME deletes
every token carrying it plus all descendants — following the
Rete/UL-style bookkeeping of intrusive chains, so no token or WME owns
a container of its own: a token's children hang off ``last_child``
through ``prev_sibling``/``next_sibling``, and the tokens holding one
WME hang off :class:`repro.rete.network.ReteNetwork`'s per-WME head
through ``wme_prev``/``wme_next``.  Both unlink in O(1).  Only a
negative node's :class:`NegToken` carries blockers and an ``active``
flag; every other token is active by its class.

Join and negative nodes with an equality test probe hash indexes on
both inputs, and those with only an order test (``<``, ``<=``, ``>``,
``>=``) probe ordered indexes (:class:`TwoInputNode` is the one place
that decides).  Candidates are post-filtered by the full test list, so
an index only saves work, never changes results.
"""

from __future__ import annotations

from repro.core.instantiation import recency_key
from repro.engine.stats import NULL_STATS
from repro.rete import kernels
from repro.rete.alpha import (
    ORDER_PREDICATES,
    OrderedIndex,
    _index_add,
    _index_discard,
)

#: A predicate seen from the other side: ``wme.v > c`` is ``c < wme.v``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _active(tokens):
    return [token for token in tokens if token.active]


def _choose_index_test(tests):
    """The test a node's indexes serve: the first ``=``, else the first
    order predicate, else None (the node scans)."""
    for wanted in (("=",), ORDER_PREDICATES):
        for test in tests:
            if test.predicate in wanted:
                return test
    return None


class Token:
    """A partial (or full) match: a chain of one WME per CE level."""

    __slots__ = (
        "parent",
        "wme",
        "node",
        "level",
        "last_child",
        "prev_sibling",
        "next_sibling",
        "wme_prev",
        "wme_next",
        "_tags",
    )

    #: Only a :class:`NegToken` can be blocked.
    active = True

    def __init__(self, parent, wme, node, level):
        self.parent = parent
        self.wme = wme
        self.node = node
        self.level = level
        # Children are an intrusive doubly linked chain, newest at
        # ``last_child``: O(1) append and unlink whatever the fan-out.
        self.last_child = self.prev_sibling = self.next_sibling = None
        # The chain of tokens holding ``wme``, newest first; the network
        # links and unlinks it (``register_token`` / ``delete_token``).
        self.wme_prev = self.wme_next = None
        self._tags = None
        if parent is not None:
            older = self.prev_sibling = parent.last_child
            if older is not None:
                older.next_sibling = self
            parent.last_child = self

    def unlink(self):
        """Leave the parent's child chain, keeping no link to a sibling."""
        older, newer = self.prev_sibling, self.next_sibling
        if newer is None:
            self.parent.last_child = older
        else:
            newer.prev_sibling = older
        if older is not None:
            older.next_sibling = newer
        self.prev_sibling = self.next_sibling = None

    # -- instantiation protocol ------------------------------------------

    def wme_at(self, level):
        """The WME matched at CE *level* (None for negated levels)."""
        token = self
        while token is not None and token.level >= 0:
            if token.level == level:
                return token.wme
            token = token.parent
        return None

    def wmes(self):
        """All WMEs in CE order (None at negated levels)."""
        chain = []
        token = self
        while token is not None and token.level >= 0:
            chain.append(token.wme)
            token = token.parent
        chain.reverse()
        return tuple(chain)

    def time_tags(self):
        """Sorted-descending time tags (the LEX recency key), cached."""
        if self._tags is None:
            self._tags = recency_key(
                [w.time_tag for w in self.wmes() if w is not None]
            )
        return self._tags

    def lookup(self, level, attribute):
        """Join-test resolver: the value bound at (level, attribute)."""
        wme = self.wme_at(level)
        return None if wme is None else wme.get(attribute)

    def __repr__(self):
        tags = ",".join(
            "-" if w is None else str(w.time_tag) for w in self.wmes()
        )
        return f"Token[{tags}]@L{self.level}"


class NegToken(Token):
    """A negative node's token: it propagates downstream only while no
    alpha WME blocks it."""

    __slots__ = ("neg_results", "active")

    def __init__(self, parent, node, level):
        super().__init__(parent, None, node, level)
        # ``{wme: None}`` of the alpha WMEs blocking this token (the
        # "join results"), in arrival order.
        self.neg_results = {}
        self.active = True


class DummyToken(Token):
    """The root token seeding the dummy top memory."""

    def __init__(self):
        super().__init__(None, None, None, -1)


class TokenStore:
    """Token ``items`` plus on-demand indexes over their bindings.

    ``indexes`` maps a binding site ``(level, attribute)`` to
    ``{binding value -> {token: None}}``; an index is created by the
    first node whose equality test reads that site, so its right
    activations probe instead of scanning (see the join-index ablation
    benchmark).  ``ranges`` maps a site to an
    :class:`~repro.rete.alpha.OrderedIndex` the same way, for a node
    whose index test is an order predicate.  Buckets keep insertion
    order, like ``items``.
    """

    __slots__ = ()

    def ensure_index(self, site):
        """Create (once) the token index keyed by *site*'s binding value."""
        if site in self.indexes:
            return
        index = {}
        for token in self.items:
            _index_add(index, token.lookup(*site), token)
        self.indexes[site] = index

    def ensure_range(self, site):
        """Create (once) the ordered token index on *site*'s binding."""
        if site not in self.ranges:
            index = self.ranges[site] = OrderedIndex()
            for token in self.items:
                index.add(token.lookup(*site), token)
        return self.ranges[site]

    def indexed_tokens(self, site, value):
        """Tokens whose binding at *site* equals *value* (index probe)."""
        return list(self.indexes[site].get(value, ()))

    def _index_token(self, token):
        for site, index in self.indexes.items():
            _index_add(index, token.lookup(*site), token)
        for site, index in self.ranges.items():
            index.add(token.lookup(*site), token)

    def _unindex_token(self, token):
        for site, index in self.indexes.items():
            _index_discard(index, token.lookup(*site), token)
        for site, index in self.ranges.items():
            index.discard(token.lookup(*site), token)


class BetaMemory(TokenStore):
    """Stores the tokens matching a prefix of a rule's CEs.

    ``successors`` are join/negative nodes using this memory as their
    left input; ``observers`` are terminal nodes (P-nodes / S-nodes)
    notified of token arrival and departure.
    """

    __slots__ = ("parent_join", "level", "items", "successors", "observers",
                 "indexes", "ranges", "stats", "stats_key")

    def __init__(self, parent_join, level, stats=None):
        self.parent_join = parent_join
        self.level = level
        self.items = {}
        self.successors = []
        self.observers = []
        self.indexes = {}
        self.ranges = {}
        self.attach_stats(stats if stats is not None else NULL_STATS)

    def attach_stats(self, stats):
        self.stats = stats
        self.stats_key = stats.register_node("beta", f"L{self.level}")

    def active_tokens(self):
        return list(self.items)

    def left_activate(self, parent_token, wme, network):
        """A (token, wme) pair survived the parent join: store + propagate."""
        token = Token(parent_token, wme, self, self.level)
        network.register_token(token)
        self.items[token] = None
        self._index_token(token)
        self.stats.memory_size(self.stats_key, len(self.items))
        for successor in self.successors:
            successor.left_activate(token)
        for observer in self.observers:
            observer.token_added(token)
        return token

    def remove_token(self, token):
        """Called by the deletion cascade; descendants are already gone."""
        self.items.pop(token, None)
        self._unindex_token(token)
        for observer in self.observers:
            observer.token_removed(token)

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        return f"BetaMemory(level={self.level}, {len(self.items)} tokens)"


class TwoInputNode:
    """What join and negative nodes share: tests, access path, candidates.

    ``tests`` are :class:`repro.analysis.JoinTest` instances comparing
    a WME of the right input (``amem``) against values bound in a token
    of ``store`` — the left memory for a join, the node itself for a
    negative node.  This class is the one implementation of "equality
    test → hash probe, else order test → ordered probe, else scan":
    when ``network.indexed_joins`` is on, the first ``=`` test — or,
    with none, the first ``<``/``<=``/``>``/``>=`` test — becomes
    ``index_test``, and both sides get an index on it (``store`` by
    binding value at ``site``, ``amem`` by attribute value).  An order
    test's indexes are :class:`~repro.rete.alpha.OrderedIndex` objects,
    held as ``wme_range`` and ``token_range``.

    The test list is compiled once, when the node is built
    (:mod:`repro.rete.kernels`): a join predicate for the candidates of
    a probe or a right activation, and a scan for a left activation
    that reads the whole alpha memory.
    """

    __slots__ = ("left", "amem", "tests", "level", "network", "store",
                 "active_only", "index_test", "site", "wme_range",
                 "token_range", "stats", "stats_key", "_match", "_scan")
    kind = None  # MatchStats node kind

    def __init__(self, left, amem, tests, level, network, store):
        self.left = left
        self.amem = amem
        self.tests = tuple(tests)
        self.level = level
        self.network = network
        self.store = store
        # A negative node's tokens reach the nodes below only while
        # active; its own right activations must see the blocked ones too.
        self.active_only = (
            store is not self and isinstance(store, TwoInputNode)
        )
        self.index_test = None
        self.site = None
        self.wme_range = self.token_range = None
        if getattr(network, "indexed_joins", False):
            self.index_test = _choose_index_test(self.tests)
        test = self.index_test
        if test is not None:
            self.site = (test.bound_level, test.bound_attribute)
            if test.predicate == "=":
                store.ensure_index(self.site)
                amem.ensure_index(test.attribute)
            else:
                self.token_range = store.ensure_range(self.site)
                self.wme_range = amem.ensure_range(test.attribute)
        self._match = kernels.join(self.tests)
        self._scan = kernels.scan(self.tests)
        self.attach_stats(network.match_stats)

    def attach_stats(self, stats):
        self.stats = stats
        self.stats_key = stats.register_node(self.kind, f"L{self.level}")

    def access_path(self):
        """``probe ^attr``, ``range ^attr <op>`` or ``scan``: how this
        node finds candidates."""
        test = self.index_test
        if test is None:
            return "scan"
        if self.wme_range is not None:
            return f"range ^{test.attribute} {test.predicate}"
        return f"probe ^{test.attribute}"

    def matching_wmes(self, token):
        """Left activation: the ``amem`` WMEs passing every test on *token*.

        Alpha-index probe (hash bucket or ordered slice), else a scan of
        every WME — in memory insertion order either way.
        """
        test = self.index_test
        probed = test is not None
        if probed:
            value = token.lookup(*self.site)
            if self.wme_range is not None:
                candidates = self.wme_range.select(test.predicate, value)
            else:
                candidates = self.amem.indexed_wmes(test.attribute, value)
            passing = candidates
            if candidates:  # most probes come back empty
                match = self._match
                lookup = token.lookup
                passing = [wme for wme in candidates if match(wme, lookup)]
        else:
            candidates = self.amem.items
            passing = self._scan(token.lookup, candidates)
        if self.stats.enabled:
            self._record(False, probed, len(candidates), len(passing))
        return passing

    def matching_tokens(self, wme):
        """Right activation: the ``store`` tokens passing every test on *wme*.

        Token-index probe, else every token — in store insertion order.
        An ordered probe flips the test: ``wme.v > c`` selects the tokens
        whose ``c < wme.v``.
        """
        test = self.index_test
        probed = test is not None
        if not probed:
            candidates = list(self.store.items)
        elif self.token_range is not None:
            candidates = self.token_range.select(
                _FLIPPED[test.predicate], wme.get(test.attribute)
            )
        else:
            candidates = self.store.indexed_tokens(
                self.site, wme.get(test.attribute)
            )
        if self.active_only:
            candidates = _active(candidates)
        passing = candidates
        if candidates:
            match = self._match
            passing = [t for t in candidates if match(wme, t.lookup)]
        if self.stats.enabled:
            self._record(True, probed, len(candidates), len(passing))
        return passing

    def _record(self, right, probed, candidates, passed):
        stats = self.stats
        key = self.stats_key
        if right:
            stats.right_activation(key)
        else:
            stats.left_activation(key)
        if probed:
            stats.index_probe(key, candidates)
        else:
            stats.full_scan(key, candidates)
        stats.join_batch(key, candidates, passed)


class JoinNode(TwoInputNode):
    """Joins a left token store with a right alpha memory.

    Output flows into exactly one :class:`BetaMemory` (created by the
    network compiler; shared when two rules have an identical join
    prefix).  The left input is a beta memory or, after a negated CE,
    a negative node.
    """

    __slots__ = ("output", "residual_tests", "_match_residual")
    kind = "join"

    def __init__(self, left, amem, tests, level, network):
        super().__init__(left, amem, tests, level, network, store=left)
        self.output = None  # set by the compiler
        # The batch path probe-verifies a hash index test and runs the
        # rest; an ordered index test goes per event.
        self.residual_tests = self.tests
        self._match_residual = self._match
        if self.index_test is not None and self.wme_range is None:
            self.residual_tests = tuple(
                t for t in self.tests if t is not self.index_test
            )
            self._match_residual = kernels.join(self.residual_tests)

    def left_activate(self, token):
        """A new token arrived in the left memory."""
        if not token.active:
            return
        output = self.output
        network = self.network
        for wme in self.matching_wmes(token):
            output.left_activate(token, wme, network)

    def right_activate(self, wme):
        """A new WME arrived in the right alpha memory."""
        for token in self.matching_tokens(wme):
            self.output.left_activate(token, wme, self.network)

    def right_activate_batch(self, wmes):
        """A group of WMEs arrived in the right alpha memory at once.

        With a hash index test the batch is partitioned by the indexed
        attribute's value; the left token index is probed *once per
        group* instead of once per WME.  Tokens from a group's bucket
        are *probe-verified* — for symbols and numbers, the only values
        working memory holds, bucket key equality coincides with
        ``values_equal`` — so only the residual tests run.  The one
        exception is a NaN binding: it sits in the bucket of the very
        same float object, found by identity, yet equals nothing, so it
        runs the full test list.  Without a hash index test every WME
        takes the per-event path.
        """
        if self.index_test is None or self.wme_range is not None:
            for wme in wmes:
                self.right_activate(wme)
            return
        site = self.site
        attribute = self.index_test.attribute
        groups = {}
        for wme in wmes:
            groups.setdefault(wme.get(attribute), []).append(wme)
        index = self.store.indexes[site]
        live = _active if self.active_only else list
        residual = self.residual_tests
        match_full = self._match
        match_residual = self._match_residual
        output = self.output
        network = self.network
        candidates_total = 0
        attempted = 0
        passed = 0
        for value, group in groups.items():
            exact = live(index.get(value, ()))
            candidates_total += len(exact)
            for token in exact:
                bound = token.lookup(*site)
                verified = bound == bound  # False only for NaN
                if verified and not residual:
                    passed += len(group)
                    for wme in group:
                        output.left_activate(token, wme, network)
                    continue
                check = match_residual if verified else match_full
                lookup = token.lookup
                for wme in group:
                    attempted += 1
                    if check(wme, lookup):
                        passed += 1
                        output.left_activate(token, wme, network)
        stats = self.stats
        if stats.enabled:
            stats.right_activation(self.stats_key)
            stats.group_probe(self.stats_key, len(groups), candidates_total)
            stats.join_batch(self.stats_key, attempted, passed)

    def share_key(self):
        """Key for beta-level sharing of identical joins."""
        return (id(self.amem), tuple(test.key() for test in self.tests))

    def __repr__(self):
        return f"JoinNode(level={self.level}, {len(self.tests)} tests)"
