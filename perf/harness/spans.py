"""Span recording from outside the program.

The benchmark times calls into each layer's public functions by
wrapping them; nothing under ``src/`` knows it is traced.  A span is
``[name, start_ns, end_ns, parent, tick]``: *parent* is the index of
the span that was open when this one started (-1 for a root), *tick* is
the driver's current unit of work, shared by every span it caused.
Spans stay in memory and are written out once, when the run ends.

One recorder serves one thread: traced runs are the embedded,
single-threaded baseline.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Recorder:
    def __init__(self):
        self.spans = []
        self.tick = None
        self.gauges = {}
        self._stack = []
        self._patches = []

    def wrap(self, function, name):
        """*function*, recording one span named *name* per call."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.tick]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()

        return traced

    def patch(self, owner, attribute, name):
        """Replace ``owner.attribute`` with its traced form until
        :meth:`restore` (instances die with their engine; modules and
        classes must be put back)."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name))
        self._patches.append((owner, attribute, original))

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def gauge(self, name, value):
        """Keep the largest *value* seen under *name*."""
        if value > self.gauges.get(name, 0):
            self.gauges[name] = value

    def call(self, name, function, *args, **kwargs):
        """Call *function* inside a span named *name*."""
        return self.wrap(function, name)(*args, **kwargs)

    # -- reading -----------------------------------------------------------

    def totals(self):
        """``{name: (calls, total_ns, self_ns)}``; self time is a span's
        duration minus the part its child spans cover."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _tick in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: [0, 0, 0])
        for index, (name, start, end, _parent, _tick) in enumerate(
            self.spans
        ):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[index]
        return {name: tuple(row) for name, row in table.items()}

    def nested_ns(self, name, ancestor):
        """Total duration of *name* spans that have an *ancestor* span
        somewhere above them."""
        inside = [False] * len(self.spans)
        total = 0
        for index, (span, start, end, parent, _tick) in enumerate(
            self.spans
        ):
            if parent >= 0:
                inside[index] = (
                    inside[parent] or self.spans[parent][0] == ancestor
                )
            if span == name and inside[index]:
                total += end - start
        return total

    def durations_ms(self, name):
        return [
            (end - start) / 1e6
            for span, start, end, _parent, _tick in self.spans
            if span == name
        ]

    def dump(self, path, header):
        """Write *header* and every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_ns", "end_ns", "parent",
                                "tick"],
                    "spans": self.spans,
                },
                handle,
            )
            handle.write("\n")
