"""Firing traces and statistics.

Every firing produces a :class:`FiringRecord` capturing which rule
fired, on which time tags, and how many WM actions of each kind the RHS
performed.  The per-firing action counts are the paper's parallelism
proxy ("the number of actions in a set-oriented rule should be
substantially greater") measured by experiment C3.

By default the tracer keeps every record — the paper-claim tests
inspect complete trajectories.  For long-running production workloads
pass ``max_records`` to switch both the firing list and the ``write``
output to bounded ring buffers; dropped records are counted (and
surfaced through the stats hook as ``tracer_dropped_firings`` /
``tracer_dropped_output``) so a profile never silently under-reports.
"""

from __future__ import annotations

from collections import deque

from repro.engine.stats import NULL_STATS


class FiringRecord:
    """What one rule firing did."""

    __slots__ = (
        "cycle",
        "rule_name",
        "is_set_oriented",
        "time_tags",
        "token_count",
        "makes",
        "removes",
        "modifies",
        "writes",
        "binds",
        "actions",
        "outcome",
        "error",
        "note",
    )

    def __init__(self, cycle, rule_name, is_set_oriented, time_tags,
                 token_count):
        self.cycle = cycle
        self.rule_name = rule_name
        self.is_set_oriented = is_set_oriented
        self.time_tags = tuple(time_tags)
        self.token_count = token_count
        self.makes = 0
        self.removes = 0
        self.modifies = 0
        self.writes = 0
        self.binds = 0
        # The WM actions for the parallelism model, flat: three entries
        # per action, ``kind, tag, new_tag`` (see :meth:`touch`).  One
        # list, not a tuple or a dict entry per action, because a
        # set-oriented firing touches every member of its set.
        self.actions = []
        # Reliability layer: "fired", or the abort outcome of a rolled
        # back attempt (halt/skip/retry/quarantine) plus the error; the
        # rolled-back WM action counts above describe staged effects
        # that never committed.
        self.outcome = "fired"
        self.error = None
        # Non-fatal anomaly noted by the engine (e.g. a WAL append that
        # failed after the effects were already published).
        self.note = None

    def touch(self, kind, tag=None, new_tag=None):
        """Record one WM action for the parallelism model.

        *kind* is ``"make"``, ``"remove"`` or ``"modify"``.  *tag* is
        the time tag of the element the action removed or modified
        (None for a make).  *new_tag*, for a modify, is the replacement
        element's tag: it joins the original element's dependency
        chain, so a later action on the replacement is charged to the
        same chain (:attr:`touched_ops`).
        """
        self.actions.extend((kind, tag, new_tag))

    @property
    def touched_ops(self):
        """One ``(kind, root)`` pair per WM action, in action order.

        *root* is the touched element's *chain root* time tag, or None
        for a make.  A modify re-tags its element, so the chain root —
        the tag the element had when this firing first touched its
        lineage — stands in for the momentary tag: two modifies of the
        same logical element form one dependency chain even though the
        second one sees a fresh tag.  The cost model needs the kind
        because the executor performs a modify as remove+insert on the
        same element (a 2-unit chain link).
        """
        ops = []
        roots = {}
        actions = iter(self.actions)
        for kind, tag, new_tag in zip(actions, actions, actions):
            root = None
            if tag is not None:
                root = roots.get(tag, tag)
            ops.append((kind, root))
            if new_tag is not None and root is not None:
                roots[new_tag] = root
        return ops

    @property
    def aborted(self):
        """Was this attempt rolled back (its effects never committed)?"""
        return self.outcome != "fired"

    @property
    def wm_actions(self):
        """WM changes this firing performed (the parallelism proxy)."""
        return self.makes + self.removes + self.modifies

    @property
    def total_actions(self):
        return self.wm_actions + self.writes + self.binds

    def __repr__(self):
        return (
            f"FiringRecord({self.cycle}: {self.rule_name}, "
            f"{self.wm_actions} wm actions)"
        )


class Tracer:
    """Accumulates firing records and ``write`` output.

    *max_records* bounds both collections as ring buffers (oldest
    records evicted first); the default ``None`` keeps everything.
    """

    def __init__(self, echo=False, max_records=None, stats=None):
        self.echo = echo
        self.max_records = max_records
        self.stats = stats if stats is not None else NULL_STATS
        if max_records is None:
            self.firings = []
            self.output = []
        else:
            self.firings = deque(maxlen=max_records)
            self.output = deque(maxlen=max_records)
        self.dropped_firings = 0
        self.dropped_output = 0

    def begin_firing(self, cycle, instantiation):
        record = FiringRecord(
            cycle,
            instantiation.rule.name,
            instantiation.is_set_oriented,
            instantiation.recency_key(),
            len(instantiation.tokens()),
        )
        if (self.max_records is not None
                and len(self.firings) == self.max_records):
            self.dropped_firings += 1
            self.stats.incr("tracer_dropped_firings")
        self.firings.append(record)
        return record

    def write(self, text):
        if (self.max_records is not None
                and len(self.output) == self.max_records):
            self.dropped_output += 1
            self.stats.incr("tracer_dropped_output")
        self.output.append(text)
        if self.echo:
            print(text)

    @property
    def dropped_records(self):
        """Records evicted from the ring buffers (0 in unbounded mode)."""
        return self.dropped_firings + self.dropped_output

    # -- summaries ----------------------------------------------------------

    @property
    def firing_count(self):
        return len(self.firings)

    def firings_of(self, rule_name):
        return [f for f in self.firings if f.rule_name == rule_name]

    def actions_per_firing(self):
        """WM actions per firing, in firing order."""
        return [record.wm_actions for record in self.firings]

    def total_wm_actions(self):
        return sum(record.wm_actions for record in self.firings)

    def clear(self):
        self.firings.clear()
        self.output.clear()
        self.dropped_firings = 0
        self.dropped_output = 0
