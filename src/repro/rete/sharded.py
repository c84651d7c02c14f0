"""Sharded batched match: rule-subnetwork partitions on a thread pool.

:class:`ShardedReteNetwork` implements the
:class:`~repro.match.base.Matcher` contract by partitioning the rule
base across N full :class:`~repro.rete.network.ReteNetwork` shards and
fanning each flushed :class:`~repro.wm.events.DeltaBatch` out to the
interested shards on a thread pool.  Within a shard, propagation is the
ordinary (deterministic) batched Rete path; across shards there is no
shared mutable state — alpha/beta memories, tokens, and S-nodes are
all shard-private, and WMEs are immutable — so shards can propagate
concurrently.

**Shard key.**  A rule is assigned by the CRC-32 of its sorted
referenced WME-class names modulo the shard count — the alpha-class
partition the batched alpha network (PR 2's ``add_batch``) already
groups deltas by.  Rules over the same class set land on the same
shard (keeping their alpha/beta sharing); the hash is content-defined,
so the assignment is independent of rule-addition order *and* of
``PYTHONHASHSEED`` (the CI soak job randomises it).

**Deterministic merge.**  Each shard's conflict-set deltas collect in
a private :class:`_DeltaBuffer`; after every propagation — and only
after all pool futures complete (a barrier) — the buffers drain into
the real listener in shard-index order.  Buffer contents are the
shard's own deterministic propagation order, and shard membership of a
rule is deterministic, so the merged delta stream is bit-identical run
to run and to an unsharded network modulo rule-interleaving the
conflict set is insensitive to (it orders by strategy key at
selection, not arrival).

**Caveats** (see ``docs/PARALLELISM.md``): constant tests and joins
are pure Python, so under the GIL thread-level sharding overlaps
little CPU.  When a live
:class:`~repro.engine.stats.MatchStats` hook is attached, shards
propagate serially — the collector is not thread-safe and counter
determinism is part of the bench gate's contract.
"""

from __future__ import annotations

import zlib

from repro.engine.stats import NULL_STATS
from repro.errors import RuleError
from repro.match.base import ConflictListener, Matcher
from repro.rete.network import ReteNetwork, ReteStats


def shard_of(class_names, shards):
    """The shard index for a rule referencing *class_names*.

    Content-defined (CRC-32 of the sorted class names), so stable
    across processes, insertion orders, and hash-seed randomisation.
    """
    blob = ",".join(sorted(class_names)).encode("utf-8")
    return zlib.crc32(blob) % shards


class _DeltaBuffer(ConflictListener):
    """Collects one shard's conflict-set deltas until the merge."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = []

    def insert(self, instantiation):
        self.ops.append(("+", instantiation))

    def retract(self, instantiation):
        self.ops.append(("-", instantiation))

    def reposition(self, instantiation):
        self.ops.append(("t", instantiation))

    def drain_into(self, listener):
        """Replay buffered deltas into *listener*, oldest first."""
        ops, self.ops = self.ops, []
        for sign, instantiation in ops:
            if sign == "+":
                listener.insert(instantiation)
            elif sign == "-":
                listener.retract(instantiation)
            else:
                listener.reposition(instantiation)
        return len(ops)


class ShardedReteNetwork(Matcher):
    """N Rete shards behind one Matcher facade (see module docstring)."""

    def __init__(self, shards=2, workers=None, stats=None,
                 **network_options):
        super().__init__()
        if shards < 1:
            raise RuleError(f"need at least 1 shard, got {shards}")
        self.match_stats = stats if stats is not None else NULL_STATS
        self.workers = workers if workers is not None else shards
        self.shards = [
            ReteNetwork(stats=self.match_stats, **network_options)
            for _ in range(shards)
        ]
        self._buffers = [_DeltaBuffer() for _ in range(shards)]
        for shard, buffer in zip(self.shards, self._buffers):
            shard.set_listener(buffer)
        self._rule_shard = {}
        self._pool = None

    # -- pool ----------------------------------------------------------

    def _thread_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def close(self):
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- Matcher contract ----------------------------------------------

    def set_stats(self, stats):
        self.match_stats = stats
        for shard in self.shards:
            shard.set_stats(stats)

    def attach(self, wm):
        self.wm = wm
        for shard in self.shards:
            # Shards read WM for rule back-fill but never subscribe:
            # only the facade observes, so a delta is routed once.
            shard.wm = wm
        wm.attach(self.on_event, on_batch=self.on_batch)
        from repro.wm.events import ADD, WMEvent

        for wme in wm:
            self.on_event(WMEvent(ADD, wme))

    def add_rule(self, rule):
        if rule.name in self._rule_shard:
            raise RuleError(f"rule {rule.name} already in the network")
        index = shard_of(
            {ce.wme_class for ce in rule.ces}, len(self.shards)
        )
        shard = self.shards[index]
        # Back-fill invariant: the shard reads live WM directly when a
        # rule's alpha memories are created, so a shard gaining interest
        # in a WME class it previously filtered out via interested_in
        # still starts fully populated.  attach() propagates wm to every
        # shard; re-assert it here so a facade attached after
        # construction (or re-attached) can never leave a shard blind.
        if shard.wm is not self.wm:
            shard.wm = self.wm
        analysis = shard.add_rule(rule)
        self._rule_shard[rule.name] = index
        self._merge()
        return analysis

    def remove_rule(self, rule_name):
        index = self._rule_shard.pop(rule_name, None)
        if index is None:
            raise RuleError(f"no rule named {rule_name} in the network")
        self.shards[index].remove_rule(rule_name)
        self._merge()

    def on_event(self, event):
        wme_class = event.wme.wme_class
        for shard in self.shards:
            if shard.interested_in(wme_class):
                shard.on_event(event)
        self._merge()

    def on_batch(self, events):
        """Fan one flushed delta-set out to the interested shards.

        Shards propagate concurrently on the thread pool (serially
        when only one shard is interested, the pool is sized 1, or a
        live stats hook is attached); the barrier below guarantees
        every shard finished before the deterministic merge runs.
        """
        live = []
        for shard, buffer in zip(self.shards, self._buffers):
            part = [
                event for event in events
                if shard.interested_in(event.wme.wme_class)
            ]
            if part:
                live.append((shard, part))
        self.match_stats.shard_batch(
            len(live), sum(len(part) for _, part in live)
        )
        parallel = (
            len(live) > 1
            and self.workers > 1
            and not self.match_stats.enabled
        )
        if not parallel:
            for shard, part in live:
                shard.on_batch(part)
            self._merge()
            return
        pool = self._thread_pool()
        futures = [
            pool.submit(shard.on_batch, part) for shard, part in live
        ]
        failure = None
        for future in futures:  # the barrier
            try:
                future.result()
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        self._merge()

    def _merge(self):
        """Drain per-shard delta buffers in shard-index order."""
        for buffer in self._buffers:
            buffer.drain_into(self.listener)

    # -- inspection ----------------------------------------------------

    @property
    def stats(self):
        """Aggregated :class:`ReteStats` across the shards."""
        total = ReteStats()
        for shard in self.shards:
            for field in ReteStats.__slots__:
                setattr(
                    total, field,
                    getattr(total, field) + getattr(shard.stats, field),
                )
        return total

    def shard_for(self, rule_name):
        """The shard index hosting *rule_name* (KeyError if absent)."""
        return self._rule_shard[rule_name]

    def snode_for(self, rule_name):
        """The S-node of a set-oriented rule (KeyError if none)."""
        return self.shards[self._rule_shard[rule_name]].snode_for(
            rule_name
        )

    def production_node(self, rule_name):
        return self.shards[
            self._rule_shard[rule_name]
        ].production_node(rule_name)

    def __repr__(self):
        rules = len(self._rule_shard)
        return (
            f"ShardedReteNetwork({len(self.shards)} shards, "
            f"{rules} rules, thread pool x{self.workers})"
        )
