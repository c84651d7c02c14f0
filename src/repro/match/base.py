"""The matcher contract shared by Rete, naive, and DIPS."""

from __future__ import annotations

from repro.engine.stats import NULL_STATS


class ConflictListener:
    """Receiver of conflict-set deltas produced by a matcher.

    ``insert``/``retract`` carry :class:`~repro.core.instantiation`
    objects (regular or set-oriented); ``reposition`` signals that a
    live SOI's conflict-set rank changed (the S-node's ``time`` mark).
    """

    def insert(self, instantiation):
        raise NotImplementedError

    def retract(self, instantiation):
        raise NotImplementedError

    def reposition(self, instantiation):
        raise NotImplementedError


class NullListener(ConflictListener):
    """Discards all deltas; handy default and benchmark sink."""

    def insert(self, instantiation):
        pass

    def retract(self, instantiation):
        pass

    def reposition(self, instantiation):
        pass


class Matcher:
    """Abstract incremental matcher.

    Lifecycle: construct, :meth:`set_listener`, :meth:`add_rule` for
    each production, :meth:`attach` to a working memory (existing WMEs
    are back-filled), then WM changes stream in via the observer hook.
    Rules may also be added after attachment; matchers must back-fill.

    Every matcher ends each rule in the terminal nodes of
    :func:`repro.rete.pnode.build_terminal`; a set-oriented rule's
    S-node is kept in :attr:`snodes`, rule name -> S-node.
    """

    def __init__(self):
        self.listener = NullListener()
        self.wm = None
        self.match_stats = NULL_STATS
        self.snodes = {}

    def set_listener(self, listener):
        self.listener = listener

    def set_stats(self, stats):
        """Attach a :class:`repro.engine.stats.MatchStats` hook and
        re-register every S-node with it; Rete also re-registers its
        alpha and beta nodes."""
        self.match_stats = stats
        for snode in self.snodes.values():
            snode.attach_stats(stats)

    def staged(self):
        """Stage every S-node around one delta-set (a ``with`` block):
        token arrivals and departures only update γ-memory, and on exit
        each S-node runs Figure 3's test and decide once per SOI the
        delta-set touched, evicting an SOI all of whose tokens left."""
        return _Staged(self.snodes.values())

    def attach(self, wm):
        """Subscribe to *wm* and back-fill its current contents."""
        self.wm = wm
        wm.attach(self.on_event, on_batch=self.on_batch)
        for wme in wm:
            from repro.wm.events import WMEvent, ADD

            self.on_event(WMEvent(ADD, wme))

    def add_rule(self, rule):
        raise NotImplementedError

    def remove_rule(self, rule_name):
        """Excise *rule_name*, retracting its live instantiations."""
        raise NotImplementedError

    def on_event(self, event):
        raise NotImplementedError

    def on_batch(self, events):
        """Consume one flushed delta-set (a list of net WMEvents).

        The base implementation replays the net stream per event —
        always correct, never set-oriented.  Matchers override this to
        process the whole delta-set at once.
        """
        for event in events:
            self.on_event(event)


class _Staged(tuple):
    """The context :meth:`Matcher.staged` returns: the S-nodes it
    stages.  A tuple, not a generator: it wraps every flushed
    delta-set, so entering it costs two calls and no ``__init__``."""

    __slots__ = ()

    def __enter__(self):
        for snode in self:
            snode.begin_batch()

    def __exit__(self, *exc_info):
        for snode in self:
            snode.flush_batch()
