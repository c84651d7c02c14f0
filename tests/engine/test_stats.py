"""The observability layer: MatchStats, NullStats, and the tracer ring.

Covers the counter semantics (per-node records, totals, high-water
marks), the reporting surfaces (snapshot / to_json / format_report /
JSON-lines sink), the end-to-end wiring through ``RuleEngine(stats=...)``
for every matcher, and the bounded tracer's dropped-record accounting.
"""

import io
import json

import pytest

from repro import MatchStats, NullStats, RuleEngine
from repro.engine.stats import NULL_STATS
from repro.engine.tracing import Tracer
from repro.match import NaiveMatcher

PROGRAM = """
(literalize item owner v)
(literalize owner name)
(p pair (item ^owner <o>) (owner ^name <o>) --> (write <o>))
(p tally { [item ^v <v>] <S> }
  :test ((count <S>) >= 2)
  -->
  (write (count <S>)))
"""


def run_program(stats=None, matcher=None, **engine_kwargs):
    engine = RuleEngine(stats=stats, matcher=matcher, **engine_kwargs)
    engine.load(PROGRAM)
    engine.make("owner", name="ann")
    for value in range(3):
        engine.make("item", owner="ann", v=value)
    engine.run()
    return engine


# ---------------------------------------------------------------------------
# NullStats
# ---------------------------------------------------------------------------


class TestNullStats:
    def test_disabled_and_inert(self):
        null = NullStats()
        assert null.enabled is False
        assert null.register_node("join", "L1") is None
        # Every hook is a silent no-op.
        null.alpha_activation(None, "+", 3)
        null.join_batch(None, 5, 2)
        null.token_created()
        null.snode_mark(None, "+")
        null.cycle("rule", 0.1)
        null.incr("anything")
        assert null.snapshot() == {"enabled": False}
        assert "disabled" in null.format_report()

    def test_default_wiring_is_the_shared_singleton(self):
        engine = RuleEngine()
        assert engine.stats is NULL_STATS
        assert engine.matcher.match_stats is NULL_STATS
        assert engine.tracer.stats is NULL_STATS


# ---------------------------------------------------------------------------
# MatchStats counters
# ---------------------------------------------------------------------------


class TestMatchStatsCounters:
    def test_register_node_labels_are_unique(self):
        stats = MatchStats()
        a = stats.register_node("join", "L0")
        b = stats.register_node("join", "L0")
        plain = stats.register_node("beta")
        assert a != b
        assert a.startswith("join:L0#")
        assert plain.startswith("beta#")
        assert set(stats.nodes) == {a, b, plain}

    def test_join_batch_and_single_tests_accumulate(self):
        stats = MatchStats()
        key = stats.register_node("join", "L1")
        stats.join_batch(key, attempted=4, passed=1)
        stats.join_batch(key, attempted=1, passed=True)
        stats.join_batch(key, attempted=1, passed=False)
        assert stats.totals["join_tests_attempted"] == 6
        assert stats.totals["join_tests_passed"] == 2
        assert stats.nodes[key]["join_tests"] == 6
        assert stats.nodes[key]["join_passed"] == 2

    def test_memory_high_water_mark(self):
        stats = MatchStats()
        key = stats.register_node("beta", "L0")
        for size in (1, 5, 2):
            stats.memory_size(key, size)
        assert stats.nodes[key]["size"] == 2
        assert stats.nodes[key]["size_hwm"] == 5

    def test_gamma_tracks_groups_and_tokens(self):
        stats = MatchStats()
        key = stats.register_node("snode", "tally")
        stats.gamma_size(key, groups=2, tokens=7)
        stats.gamma_size(key, groups=1, tokens=3)
        node = stats.nodes[key]
        assert (node["groups"], node["groups_hwm"]) == (1, 2)
        assert (node["tokens"], node["tokens_hwm"]) == (3, 7)

    def test_snode_marks_by_kind(self):
        stats = MatchStats()
        key = stats.register_node("snode", "tally")
        for kind in ("+", "+", "-", "time"):
            stats.snode_mark(key, kind)
        assert stats.totals["snode_marks_add"] == 2
        assert stats.totals["snode_marks_remove"] == 1
        assert stats.totals["snode_marks_time"] == 1
        assert stats.nodes[key]["marks_add"] == 2

    def test_probe_and_scan_candidates(self):
        stats = MatchStats()
        stats.index_probe(None, 2)
        stats.full_scan(None, 9)
        assert stats.totals["index_probes"] == 1
        assert stats.totals["index_probe_candidates"] == 2
        assert stats.totals["full_scans"] == 1
        assert stats.totals["full_scan_candidates"] == 9

    def test_cycle_timing_per_rule(self):
        stats = MatchStats()
        stats.cycle("a", 0.5)
        stats.cycle("a", 0.25)
        stats.cycle("b", 1.0)
        assert stats.cycle_count == 3
        assert stats.cycle_time == pytest.approx(1.75)
        assert stats.rules["a"] == {"firings": 2,
                                    "time": pytest.approx(0.75)}

    def test_incr_free_counters(self):
        stats = MatchStats()
        stats.incr("dips_queries_run")
        stats.incr("dips_queries_run", 4)
        assert stats.counters == {"dips_queries_run": 5}


# ---------------------------------------------------------------------------
# Reporting surfaces
# ---------------------------------------------------------------------------


class TestReporting:
    def test_snapshot_round_trips_through_json(self):
        engine = run_program(stats=MatchStats())
        snap = engine.stats.snapshot()
        assert snap["enabled"] is True
        assert json.loads(engine.stats.to_json()) == snap

    def test_snapshot_shapes(self):
        engine = run_program(stats=MatchStats())
        snap = engine.stats.snapshot()
        assert set(snap) == {"enabled", "totals", "counters", "nodes",
                             "rules", "cycles"}
        assert snap["cycles"]["count"] == engine.cycle_count
        assert all(label.count("#") == 1 for label in snap["nodes"])

    def test_format_report_contains_tables(self):
        engine = run_program(stats=MatchStats())
        report = engine.stats.format_report()
        assert "per-rule firings" in report
        assert "per-node match work" in report
        assert "totals" in report
        assert "tally" in report

    def test_jsonl_sink_receives_cycle_events(self, tmp_path):
        sink = io.StringIO()
        stats = MatchStats(event_sink=sink)
        run_program(stats=stats)
        stats.emit_snapshot()
        stats.close()
        events = [json.loads(line) for line in
                  sink.getvalue().splitlines()]
        cycle_events = [e for e in events if e["event"] == "cycle"]
        assert cycle_events
        assert {"cycle", "rule", "duration"} <= set(cycle_events[0])
        assert events[-1]["event"] == "snapshot"
        assert events[-1]["stats"]["enabled"] is True

    def test_sink_by_path_is_owned_and_closed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stats = MatchStats(event_sink=str(path))
        stats.emit({"event": "ping"})
        stats.close()
        assert json.loads(path.read_text()) == {"event": "ping"}


# ---------------------------------------------------------------------------
# End-to-end wiring
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_rete_counters_are_populated(self):
        engine = run_program(stats=MatchStats())
        totals = engine.stats.totals
        assert totals["alpha_activations"] > 0
        assert totals["join_tests_attempted"] > 0
        assert totals["tokens_created"] > 0
        assert totals["snode_marks_add"] > 0
        kinds = {label.split(":")[0] for label in engine.stats.nodes}
        assert {"alpha", "beta", "join", "snode"} <= kinds

    def test_rule_firings_recorded_with_timing(self):
        engine = run_program(stats=MatchStats())
        assert engine.stats.cycle_count == engine.cycle_count > 0
        assert "tally" in engine.stats.rules
        assert engine.stats.rules["tally"]["time"] >= 0.0

    def test_naive_shares_the_hook(self):
        engine = run_program(stats=MatchStats(), matcher=NaiveMatcher())
        totals = engine.stats.totals
        assert totals["join_tests_attempted"] > 0
        assert engine.stats.cycle_count > 0

    def test_stats_attached_after_construction(self):
        """set_stats re-registers already-built nodes (Engine wires an
        externally constructed matcher this way)."""
        from repro.rete import ReteNetwork

        matcher = ReteNetwork()
        engine = RuleEngine(matcher=matcher)
        engine.load(PROGRAM)
        stats = MatchStats()
        matcher.set_stats(stats)
        engine.make("item", owner="x", v=1)
        assert stats.totals["alpha_activations"] > 0


# ---------------------------------------------------------------------------
# Tracer ring buffer
# ---------------------------------------------------------------------------


class TestTracerRing:
    def test_unbounded_by_default(self):
        tracer = Tracer()
        for index in range(100):
            tracer.write(str(index))
        assert len(tracer.output) == 100
        assert tracer.dropped_records == 0

    def test_ring_drops_oldest_and_counts(self):
        stats = MatchStats()
        tracer = Tracer(max_records=3, stats=stats)
        for index in range(5):
            tracer.write(str(index))
        assert list(tracer.output) == ["2", "3", "4"]
        assert tracer.dropped_output == 2
        assert tracer.dropped_records == 2
        assert stats.counters["tracer_dropped_output"] == 2

    def test_firing_records_also_ring(self):
        engine = run_program(stats=MatchStats(), trace_limit=2)
        tracer = engine.tracer
        assert len(tracer.firings) <= 2
        total = len(tracer.firings) + tracer.dropped_firings
        assert total == engine.cycle_count
        if tracer.dropped_firings:
            assert (engine.stats.counters["tracer_dropped_firings"]
                    == tracer.dropped_firings)

    def test_clear_resets_drop_counters(self):
        tracer = Tracer(max_records=1)
        tracer.write("a")
        tracer.write("b")
        assert tracer.dropped_output == 1
        tracer.clear()
        assert tracer.dropped_records == 0
        assert len(tracer.output) == 0
