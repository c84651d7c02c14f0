"""The alpha network: per-WME constant tests feeding alpha memories.

Each distinct combination of (class, constant checks, intra-element
tests) gets exactly one :class:`AlphaMemory`, shared by every CE — in
any rule, set-oriented or not — with the same tests.  The
:class:`AlphaNetwork` indexes memories by WME class so an event only
visits candidate memories.

Two index kinds serve the join nodes, on alpha memories and token
stores alike.  A hash index keys buckets by attribute value; every
value is hashable, since working memory admits only symbols and
numbers.  An :class:`OrderedIndex` keeps numeric values sorted for
``<``/``<=``/``>``/``>=`` probes, and hands a slice back in the
memory's insertion order, the order a scan would produce.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import count

from repro.engine.stats import NULL_STATS
from repro.rete import kernels
from repro.symbols import is_number

#: The predicates an :class:`OrderedIndex` answers.
ORDER_PREDICATES = frozenset(("<", "<=", ">", ">="))


def _orderable(value):
    """Can *value* satisfy an order predicate?  Numbers other than NaN."""
    return is_number(value) and value == value


class OrderedIndex:
    """Members keyed by a number, for order-predicate probes.

    ``keys`` holds the distinct values ascending (searched with
    ``bisect``); ``buckets`` maps each to an insertion-ordered
    ``{member: arrival number}``.  ``1`` and ``1.0`` share a bucket.  A
    value that no order predicate can hold for (a symbol, ``nil``, NaN)
    is never filed, and a probe with one returns nothing.

    Members are filed in their memory's insertion order, so arrival
    numbers follow it: a slice spanning several buckets is sorted by
    them, which costs O(k log k) in the members returned only, and
    comes back in the order a scan of the memory would produce.
    """

    __slots__ = ("keys", "buckets", "arrival")

    def __init__(self):
        self.keys = []
        self.buckets = {}
        self.arrival = count().__next__

    def add(self, value, member):
        if not _orderable(value):
            return
        bucket = self.buckets.get(value)
        if bucket is None:
            insort(self.keys, value)
            bucket = self.buckets[value] = {}
        bucket[member] = self.arrival()

    def discard(self, value, member):
        bucket = self.buckets.get(value) if _orderable(value) else None
        if bucket is not None:
            bucket.pop(member, None)
            if not bucket:
                del self.buckets[value]
                del self.keys[bisect_left(self.keys, value)]

    def select(self, predicate, value):
        """Members whose key ``k`` satisfies ``k <predicate> value``, in
        arrival order."""
        keys = self.keys
        if not keys or not _orderable(value):
            return []
        if predicate == "<":
            keys = keys[:bisect_left(keys, value)]
        elif predicate == "<=":
            keys = keys[:bisect_right(keys, value)]
        elif predicate == ">":
            keys = keys[bisect_right(keys, value):]
        else:
            keys = keys[bisect_left(keys, value):]
        buckets = self.buckets
        if len(keys) == 1:
            return list(buckets[keys[0]])
        filed = [(arrival, member) for key in keys
                 for member, arrival in buckets[key].items()]
        filed.sort()  # arrival numbers are distinct: members never compared
        return [member for _, member in filed]


class AlphaMemory:
    """The WMEs currently passing one CE's local (single-WME) tests.

    ``successors`` are beta-side consumers (join or negative nodes)
    right-activated when the memory changes.

    ``passes`` is the memory's admission predicate, compiled from the
    CE's tests when the memory is built (:func:`repro.rete.kernels.alpha`).
    """

    __slots__ = ("key", "analysis", "items", "successors", "indexes",
                 "ranges", "stats", "stats_key", "passes")

    def __init__(self, key, analysis, stats=None):
        self.key = key
        self.analysis = analysis
        # dict used as an ordered set: insertion order, O(1) removal.
        self.items = {}
        self.successors = []
        # attribute -> {value -> {wme: None}}; built on demand by
        # equality joins so left activations probe instead of scanning.
        self.indexes = {}
        # attribute -> OrderedIndex; built on demand by range joins.
        self.ranges = {}
        self.passes = kernels.alpha(analysis)
        self.attach_stats(stats if stats is not None else NULL_STATS)

    def attach_stats(self, stats):
        self.stats = stats
        self.stats_key = stats.register_node("alpha", str(self.key[0]))

    def ensure_index(self, attribute):
        """Create (once) the WME index on *attribute*."""
        if attribute in self.indexes:
            return
        index = {}
        for wme in self.items:
            _index_add(index, wme.get(attribute), wme)
        self.indexes[attribute] = index

    def indexed_wmes(self, attribute, value):
        """WMEs whose *attribute* equals *value* (index probe)."""
        return list(self.indexes[attribute].get(value, ()))

    def ensure_range(self, attribute):
        """Create (once) the ordered WME index on *attribute*."""
        if attribute not in self.ranges:
            index = self.ranges[attribute] = OrderedIndex()
            for wme in self.items:
                index.add(wme.get(attribute), wme)
        return self.ranges[attribute]

    def add(self, wme):
        self.items[wme] = None
        for attribute, index in self.indexes.items():
            _index_add(index, wme.get(attribute), wme)
        for attribute, index in self.ranges.items():
            index.add(wme.get(attribute), wme)
        self.stats.alpha_activation(self.stats_key, "+", len(self.items))
        for successor in self.successors:
            successor.right_activate(wme)

    def add_batch(self, wmes):
        """Insert a whole delta group, then right-activate it as a set.

        All WMEs enter ``items`` (and the indexes) *before* any
        successor runs, so a join's left activations triggered by the
        cascade see the complete group — the batched counterpart of the
        exactly-once pair-discovery invariant.  Successor order is the
        same deepest-first order ``add`` uses.
        """
        items = self.items
        for wme in wmes:
            items[wme] = None
        for attribute, index in self.indexes.items():
            for wme in wmes:
                _index_add(index, wme.get(attribute), wme)
        for attribute, index in self.ranges.items():
            for wme in wmes:
                index.add(wme.get(attribute), wme)
        self.stats.alpha_activation(self.stats_key, "+", len(self.items))
        for successor in self.successors:
            successor.right_activate_batch(wmes)

    def remove_batch(self, wmes):
        """Drop the members of a removed delta group from ``items`` and
        the indexes in one pass — one activation, as ``add_batch``.
        Successors are not told: the network's token cascade is."""
        items = self.items
        leaving = list(filter(items.__contains__, wmes))
        if not leaving:
            return
        for wme in leaving:
            del items[wme]
        for attribute, index in self.indexes.items():
            for wme in leaving:
                _index_discard(index, wme.get(attribute), wme)
        for attribute, index in self.ranges.items():
            for wme in leaving:
                index.discard(wme.get(attribute), wme)
        self.stats.alpha_activation(self.stats_key, "-", len(items))

    def __contains__(self, wme):
        return wme in self.items

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        return f"AlphaMemory({self.key[0]}, {len(self.items)} wmes)"


def _index_add(index, value, member):
    """Insert *member* into the bucket for *value*."""
    index.setdefault(value, {})[member] = None


def _index_discard(index, value, member):
    """Drop *member* from its bucket, pruning the bucket when empty."""
    bucket = index.get(value)
    if bucket is not None:
        bucket.pop(member, None)
        if not bucket:
            del index[value]


class AlphaNetwork:
    """Builds and feeds the shared alpha memories."""

    def __init__(self, stats=None):
        self._memories = {}
        self._by_class = {}
        self.stats = stats if stats is not None else NULL_STATS

    def attach_stats(self, stats):
        self.stats = stats
        for memory in self._memories.values():
            memory.attach_stats(stats)

    def memory_for(self, ce_analysis, key_extra=None):
        """Return (creating if needed) the alpha memory for a CE.

        *key_extra* (used by the sharing ablation) makes the key unique
        so no two CEs share a memory.
        """
        key = ce_analysis.alpha_key()
        if key_extra is not None:
            key = key + (("private", key_extra),)
        memory = self._memories.get(key)
        if memory is None:
            memory = AlphaMemory(key, ce_analysis, stats=self.stats)
            self._memories[key] = memory
            self._by_class.setdefault(ce_analysis.ce.wme_class, []).append(
                memory
            )
        return memory

    def memories(self):
        return list(self._memories.values())

    @property
    def memory_count(self):
        return len(self._memories)

    def add_wme(self, wme, backfill_only=None):
        """Route a new WME into every alpha memory whose tests it passes.

        With *backfill_only*, only that memory is considered — used when
        a rule is added after WMEs already exist.
        """
        candidates = (
            [backfill_only]
            if backfill_only is not None
            else self._by_class.get(wme.wme_class, [])
        )
        for memory in candidates:
            if memory.passes(wme):
                memory.add(wme)

    def add_batch(self, wmes):
        """Route a delta-set into the alpha network, partitioned by class.

        Each alpha memory receives its passing subset as one
        ``add_batch`` call (one activation, one group right-activation
        per successor).  Memories are processed one at a time —
        insert-then-activate per memory — which preserves the
        exactly-once pair discovery of the per-event path.
        """
        by_class = {}
        for wme in wmes:
            by_class.setdefault(wme.wme_class, []).append(wme)
        for wme_class, group in by_class.items():
            for memory in self._by_class.get(wme_class, []):
                passes = memory.passes
                passing = [w for w in group if passes(w)]
                if passing:
                    memory.add_batch(passing)

    def remove_batch(self, wmes):
        """Retract a delta-set from the alpha memories, partitioned by
        class: each memory drops its share as one group."""
        by_class = {}
        for wme in wmes:
            by_class.setdefault(wme.wme_class, []).append(wme)
        for wme_class, group in by_class.items():
            for memory in self._by_class.get(wme_class, ()):
                memory.remove_batch(group)
