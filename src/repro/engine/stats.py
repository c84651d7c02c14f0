"""Node-level match statistics: the engine's observability layer.

The paper's quantitative claims — S-node incremental aggregation beats
re-matching, join sharing and indexing cut work, set firings raise
actions-per-firing — are claims about *match-level work*, not only
wall-clock time.  This module supplies the counters those claims are
measured against:

* per-node activation counts (alpha adds/removes, left/right join
  activations), join tests attempted vs. passed, index probes vs. full
  memory scans, tokens created/deleted;
* memory occupancy with high-water marks (beta memories, alpha
  memories, S-node γ-memories);
* S-node marks emitted by kind (``+`` / ``-`` / ``time``);
* per-cycle wall-clock timing aggregated per rule;
* a JSON-lines event sink for long runs, and a structured
  ``snapshot()`` / ``to_json()`` report.

The hook is designed for **zero overhead when disabled**: every
instrumented component holds a stats object that defaults to the shared
:data:`NULL_STATS` singleton, whose hooks are all no-ops, so the hot
path pays one attribute access plus an empty call — and the costlier
call sites additionally gate on the ``enabled`` class attribute.

Wire it end-to-end with::

    from repro import MatchStats, RuleEngine

    stats = MatchStats()
    engine = RuleEngine(stats=stats)
    ...
    print(stats.format_report())
    report = stats.snapshot()          # nested dicts
    text = stats.to_json(indent=2)     # same, serialised

or from the command line with ``repro-ops program.ops --profile``.
See ``docs/OBSERVABILITY.md`` for the schema and a worked example.
"""

from __future__ import annotations

import json


class NullStats:
    """The disabled hook: every method is a no-op.

    Shared through the :data:`NULL_STATS` singleton so identity checks
    and ``enabled`` gates stay trivially cheap.
    """

    __slots__ = ()

    enabled = False

    # -- registration / lifecycle ---------------------------------------

    def register_node(self, kind, detail=""):
        """Return the stats key for a new network node (None when off)."""
        return None

    def attach_sink(self, sink):
        pass

    def close(self):
        pass

    # -- hot-path hooks --------------------------------------------------

    def alpha_activation(self, key, sign, size):
        pass

    def left_activation(self, key):
        pass

    def right_activation(self, key):
        pass

    def join_batch(self, key, attempted, passed):
        pass

    def index_probe(self, key, candidates):
        pass

    def full_scan(self, key, candidates):
        pass

    def token_created(self):
        pass

    def token_deleted(self):
        pass

    def memory_size(self, key, size):
        pass

    def gamma_size(self, key, groups, tokens=0):
        pass

    def snode_mark(self, key, kind):
        pass

    def batch_flush(self, submitted, net, coalesced):
        pass

    def group_probe(self, key, groups, candidates):
        pass

    def snode_batch(self, key, sois, reevals):
        pass

    def cycle(self, rule_name, duration):
        pass

    def incr(self, name, amount=1):
        pass

    # -- reporting --------------------------------------------------------

    def snapshot(self):
        return {"enabled": False}

    def to_json(self, indent=None):
        return json.dumps(self.snapshot(), indent=indent)

    def format_report(self):
        return "match statistics are disabled (pass stats=MatchStats())"


#: The shared disabled hook handed to every node by default.
NULL_STATS = NullStats()


def _node_record():
    return {
        "activations": 0,
        "left_activations": 0,
        "right_activations": 0,
        "join_tests": 0,
        "join_passed": 0,
        "index_probes": 0,
        "probe_candidates": 0,
        "full_scans": 0,
        "scan_candidates": 0,
        "size": 0,
        "size_hwm": 0,
        "groups": 0,
        "groups_hwm": 0,
        "tokens": 0,
        "tokens_hwm": 0,
        "marks_add": 0,
        "marks_remove": 0,
        "marks_time": 0,
        "group_probes": 0,
        "group_probe_candidates": 0,
        "batch_sois": 0,
        "batch_reevals": 0,
    }


class MatchStats(NullStats):
    """The live collector: per-node counters, timings, and an event sink.

    One instance may be shared by several matchers (the differential
    tests do exactly that); node keys returned by :meth:`register_node`
    keep their contributions separate.
    """

    __slots__ = (
        "totals",
        "counters",
        "nodes",
        "rules",
        "cycle_count",
        "cycle_time",
        "_seq",
        "_sink",
        "_owns_sink",
    )

    enabled = True

    _TOTAL_FIELDS = (
        "alpha_activations",
        "left_activations",
        "right_activations",
        "join_tests_attempted",
        "join_tests_passed",
        "index_probes",
        "index_probe_candidates",
        "full_scans",
        "full_scan_candidates",
        "tokens_created",
        "tokens_deleted",
        "snode_marks_add",
        "snode_marks_remove",
        "snode_marks_time",
        "batches",
        "batch_deltas_submitted",
        "batch_deltas_net",
        "deltas_coalesced",
        "group_probes",
        "group_probe_candidates",
        "snode_batch_sois",
        "snode_batch_reevals",
    )

    def __init__(self, event_sink=None):
        self.totals = {name: 0 for name in self._TOTAL_FIELDS}
        self.counters = {}
        self.nodes = {}
        self.rules = {}
        self.cycle_count = 0
        self.cycle_time = 0.0
        self._seq = 0
        self._sink = None
        self._owns_sink = False
        if event_sink is not None:
            self.attach_sink(event_sink)

    # -- registration / lifecycle ---------------------------------------

    def register_node(self, kind, detail=""):
        self._seq += 1
        label = f"{kind}:{detail}#{self._seq}" if detail else (
            f"{kind}#{self._seq}"
        )
        self.nodes[label] = _node_record()
        return label

    def attach_sink(self, sink):
        """Stream events as JSON lines to *sink* (path or file object)."""
        if isinstance(sink, str):
            self._sink = open(sink, "a", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False

    def close(self):
        """Flush and (if we opened it) close the event sink."""
        if self._sink is None:
            return
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()
        if self._owns_sink:
            self._sink.close()
        self._sink = None

    def emit(self, event):
        """Write one event (a dict) to the JSON-lines sink, if attached."""
        if self._sink is not None:
            self._sink.write(json.dumps(event) + "\n")

    # -- hot-path hooks --------------------------------------------------

    def alpha_activation(self, key, sign, size):
        self.totals["alpha_activations"] += 1
        if key is not None:
            node = self.nodes[key]
            node["activations"] += 1
            node["size"] = size
            if size > node["size_hwm"]:
                node["size_hwm"] = size

    def left_activation(self, key):
        self.totals["left_activations"] += 1
        if key is not None:
            self.nodes[key]["left_activations"] += 1

    def right_activation(self, key):
        self.totals["right_activations"] += 1
        if key is not None:
            self.nodes[key]["right_activations"] += 1

    def join_batch(self, key, attempted, passed):
        self.totals["join_tests_attempted"] += attempted
        self.totals["join_tests_passed"] += passed
        if key is not None:
            node = self.nodes[key]
            node["join_tests"] += attempted
            node["join_passed"] += passed

    def index_probe(self, key, candidates):
        self.totals["index_probes"] += 1
        self.totals["index_probe_candidates"] += candidates
        if key is not None:
            node = self.nodes[key]
            node["index_probes"] += 1
            node["probe_candidates"] += candidates

    def full_scan(self, key, candidates):
        self.totals["full_scans"] += 1
        self.totals["full_scan_candidates"] += candidates
        if key is not None:
            node = self.nodes[key]
            node["full_scans"] += 1
            node["scan_candidates"] += candidates

    def token_created(self):
        self.totals["tokens_created"] += 1

    def token_deleted(self):
        self.totals["tokens_deleted"] += 1

    def memory_size(self, key, size):
        if key is not None:
            node = self.nodes[key]
            node["size"] = size
            if size > node["size_hwm"]:
                node["size_hwm"] = size

    def gamma_size(self, key, groups, tokens=0):
        if key is not None:
            node = self.nodes[key]
            node["groups"] = groups
            if groups > node["groups_hwm"]:
                node["groups_hwm"] = groups
            node["tokens"] = tokens
            if tokens > node["tokens_hwm"]:
                node["tokens_hwm"] = tokens

    _MARK_FIELD = {
        "+": ("snode_marks_add", "marks_add"),
        "-": ("snode_marks_remove", "marks_remove"),
        "time": ("snode_marks_time", "marks_time"),
    }

    def snode_mark(self, key, kind):
        total_field, node_field = self._MARK_FIELD[kind]
        self.totals[total_field] += 1
        if key is not None:
            self.nodes[key][node_field] += 1

    def batch_flush(self, submitted, net, coalesced):
        """One delta-set flushed: raw deltas in, net deltas out."""
        self.totals["batches"] += 1
        self.totals["batch_deltas_submitted"] += submitted
        self.totals["batch_deltas_net"] += net
        self.totals["deltas_coalesced"] += coalesced

    def group_probe(self, key, groups, candidates):
        """A join node probed its index once per value *group*."""
        self.totals["group_probes"] += groups
        self.totals["group_probe_candidates"] += candidates
        if key is not None:
            node = self.nodes[key]
            node["group_probes"] += groups
            node["group_probe_candidates"] += candidates

    def snode_batch(self, key, sois, reevals):
        """An S-node flushed a batch: *sois* touched, *reevals* run."""
        self.totals["snode_batch_sois"] += sois
        self.totals["snode_batch_reevals"] += reevals
        if key is not None:
            node = self.nodes[key]
            node["batch_sois"] += sois
            node["batch_reevals"] += reevals

    def cycle(self, rule_name, duration):
        self.cycle_count += 1
        self.cycle_time += duration
        entry = self.rules.get(rule_name)
        if entry is None:
            entry = self.rules[rule_name] = {"firings": 0, "time": 0.0}
        entry["firings"] += 1
        entry["time"] += duration
        if self._sink is not None:
            self.emit({
                "event": "cycle",
                "cycle": self.cycle_count,
                "rule": rule_name,
                "duration": duration,
            })

    def incr(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- reporting --------------------------------------------------------

    def snapshot(self):
        """The full structured report as nested plain dicts."""
        return {
            "enabled": True,
            "totals": dict(self.totals),
            "counters": dict(self.counters),
            "nodes": {label: dict(node) for label, node in
                      self.nodes.items()},
            "rules": {name: dict(entry) for name, entry in
                      self.rules.items()},
            "cycles": {"count": self.cycle_count, "time": self.cycle_time},
        }

    def to_json(self, indent=None):
        return json.dumps(self.snapshot(), indent=indent)

    def emit_snapshot(self):
        """Write the full snapshot as one event to the sink."""
        if self._sink is not None:
            self.emit({"event": "snapshot", "stats": self.snapshot()})

    def format_report(self):
        """Per-rule and per-node tables, paper-benchmark style."""
        from repro.bench.harness import format_table

        sections = []
        if self.rules:
            rows = [
                (name, entry["firings"], f"{entry['time']:.4f}")
                for name, entry in sorted(self.rules.items())
            ]
            rows.append(("(total)", self.cycle_count,
                         f"{self.cycle_time:.4f}"))
            sections.append(format_table(
                "profile — per-rule firings",
                ["rule", "firings", "rhs time (s)"],
                rows,
            ))
        node_rows = []
        for label, node in self.nodes.items():
            node_rows.append((
                label,
                node["left_activations"] + node["right_activations"]
                + node["activations"],
                node["join_tests"],
                node["join_passed"],
                node["index_probes"],
                node["full_scans"],
                node["size_hwm"] or node["groups_hwm"],
                (f"{node['marks_add']}/{node['marks_remove']}/"
                 f"{node['marks_time']}"),
            ))
        if node_rows:
            sections.append(format_table(
                "profile — per-node match work",
                ["node", "activations", "tests", "passed", "probes",
                 "scans", "hwm", "marks +/-/t"],
                node_rows,
            ))
        total_rows = [
            (name, value) for name, value in self.totals.items()
        ]
        total_rows.extend(sorted(self.counters.items()))
        sections.append(format_table(
            "profile — totals",
            ["counter", "value"],
            total_rows,
        ))
        return "\n\n".join(sections)

    def __repr__(self):
        return (
            f"MatchStats({len(self.nodes)} nodes, "
            f"{self.cycle_count} cycles)"
        )
