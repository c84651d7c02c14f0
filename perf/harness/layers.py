"""The traced run: per-layer metrics, measured from outside.

An embedded workload runs one plain repeat and one traced repeat of the
same inputs; the difference is the tracing overhead.  A served workload
is first replayed embedded — one session's identical tick stream on an
in-process engine, plain and traced: the single-threaded baseline —
and then served; what the served request costs beyond the baseline is
the service layer's.

Every workload reports every per-layer metric; a layer that does not
take part reports 0.  ``README.md`` lists which end-to-end metric each
one should move.
"""

from __future__ import annotations

from time import perf_counter

from repro import RuleEngine, WorkingMemory
from repro.durability import DurabilityConfig
from repro.rdb import plan_counters
from repro.service import protocol

from harness import embed_workloads as embedded
from harness import gen, serve_workloads, stats
from harness.common import OUT, Result, settle
from harness.spans import Recorder

#: Ticks of the embedded replay after the window has filled.
REPLAY_TICKS = 40

RETE_COUNTS = (
    "alpha_activations", "right_activations", "join_tests_attempted",
    "join_tests_passed", "index_probes", "full_scans",
    "full_scan_candidates", "tokens_created", "snode_batch_reevals",
    "kernels_compiled", "kernel_cache_hits",
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class _Layers:
    """Derives the metric table from spans, MatchStats and counters."""

    def __init__(self, tracer, builts, factor):
        self.tracer = tracer
        self.totals = tracer.totals()
        self.factor = factor            # reference speed / core speed
        self.match_totals = {}
        self.counters = {}
        for built in builts:
            for key, value in built.stats.totals.items():
                self.match_totals[key] = self.match_totals.get(key, 0) + value
            for key, value in built.stats.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
        self.firings = [r for b in builts for r in b.engine.tracer.firings]

    def calls(self, name):
        return self.totals.get(name, (0, 0, 0))[0]

    def ms(self, name, column=1):
        return self.totals.get(name, (0, 0, 0))[column] / 1e6 * self.factor

    def per_call(self, name, scale, column=1):
        """Mean time per call of *name*; *scale* 1 gives ms, 1000 us."""
        return _ratio(self.ms(name, column) * scale, self.calls(name))

    def fill(self, result):
        put = result.put
        nested = self.tracer.nested_ns
        put("lang.parse_ms", self.ms("lang.parse"), "ms")
        put("wm.batch_deltas_net",
            self.match_totals.get("batch_deltas_net", 0), "count")
        put("rete.match_ms_per_assert", _ratio(
            nested("rete.match", "wm.ingest") / 1e6 * self.factor,
            self.calls("wm.ingest")), "ms")
        put("rete.match_ms_in_run",
            nested("rete.match", "engine.fire") / 1e6 * self.factor, "ms")
        for name in RETE_COUNTS:
            put(f"rete.{name}", self.match_totals.get(name, 0), "count")
        put("rete.join_pass_ratio", _ratio(
            self.match_totals.get("join_tests_passed", 0),
            self.match_totals.get("join_tests_attempted", 0)), "frac")
        put("engine.select_us_per_cycle",
            self.per_call("engine.select", 1000.0), "us",
            self.calls("engine.select"))
        put("engine.fire_self_us_per_firing",
            self.per_call("engine.fire", 1000.0, column=2), "us",
            self.calls("engine.fire"))
        put("engine.firings", self.calls("engine.fire"), "count")
        put("engine.conflict_set_peak",
            self.tracer.gauges.get("conflict_set_peak", 0), "count")
        put("engine.rhs_actions_per_firing", _ratio(
            sum(r.total_actions for r in self.firings),
            len(self.firings)), "count")
        put("dips.cond_apply_ms_per_batch",
            self.per_call("dips.cond_apply", 1.0), "ms",
            self.calls("dips.cond_apply"))
        put("dips.soi_query_ms", self.per_call("rdb.run_sql", 1.0), "ms",
            self.calls("rdb.run_sql"))
        put("rdb.statements",
            self.counters.get("dips_batch_statements", 0)
            + self.counters.get("dips_queries_run", 0), "count")
        records = self.counters.get("wal_appends", 0)
        put("durability.append_us_per_record",
            self.per_call("durability.append", 1000.0, column=2), "us",
            self.calls("durability.append"))
        put("durability.sync_ms_total", self.ms("durability.sync"), "ms")
        put("durability.records", records, "count")
        put("durability.fsyncs", self.counters.get("wal_fsyncs", 0),
            "count")
        put("durability.checkpoint_ms",
            self.per_call("durability.checkpoint", 1.0), "ms")


def _zero(result, names):
    for name, unit in names:
        result.put(name, 0, unit)


SERVICE_METRICS = (
    ("service.create_miss_ms", "ms"), ("service.create_hit_ms", "ms"),
    ("service.decode_us_per_req", "us"),
    ("service.encode_us_per_line", "us"),
    ("service.event_lines_per_run", "count"),
    ("service.overhead_ms_per_req", "ms"),
    ("service.overhead_frac", "frac"), ("service.facts_read_ms", "ms"),
    ("service.requests", "count"), ("service.refused", "count"),
    ("service.errors", "count"), ("service.run_p99_ms", "ms"),
    ("service.run_max_ms", "ms"), ("service.open_late_frac", "frac"),
)


def _bare_make_us(facts):
    """``make`` on a working memory nobody observes: the wm layer's own
    cost per fact of the first batch."""
    memory = WorkingMemory()
    began = perf_counter()
    with memory.batch():
        for wme_class, values in facts:
            memory.make(wme_class, **values)
    return (began, perf_counter()), len(facts)


def _work_seconds(ctx, rep):
    """Everything the harness timed in one repeat but the engine builds
    (a plain repeat builds several for ``setup_s``, a traced one one)."""
    builds = set(rep.setups)
    return sum(ctx.clock.scaled("bench", *i) for i in rep.timed
               if i not in builds)


def _coverage(tracer, rep):
    """Share of the time the harness measured that lies inside spans.
    Every span is named after a layer and self times add up to the root
    spans, so this is the sum of layer self times over end-to-end time
    (raw on both sides)."""
    timed = rep.timed
    inside = sum(
        end - start for _n, start, end, parent, _t in tracer.spans
        if parent < 0 and any(
            a <= start / 1e9 and end / 1e9 <= b for a, b in timed)
    )
    return inside / 1e9 / sum(b - a for a, b in timed)


def _dump(ctx, name, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{ctx.seed}.json"
    tracer.dump(path, {"workload": name, "seed": ctx.seed})
    return path


def _trace_embedded(name, ctx):
    sizes_of, inputs_of, repeat, _matcher = embedded.WORKLOADS[name]
    inputs = inputs_of(ctx.seed, sizes_of(ctx))
    result = Result()
    settle()
    plain = repeat(inputs)
    settle()
    tracer = Recorder()
    try:
        with plan_counters() as work:
            traced = repeat(inputs, tracer=tracer)
    finally:
        tracer.restore()
    result.attempted += 2
    result.expect(plain.outcome == traced.outcome,
                  f"traced repeat ended in {traced.outcome}, the plain "
                  f"one in {plain.outcome}")
    bare, made = _bare_make_us(traced.sample_batch)
    ctx.clock.stop()

    span = (traced.setups[0][0], perf_counter())
    layers = _Layers(tracer, traced.built,
                     ctx.clock.factor("bench", *span))
    layers.fill(result)
    _zero(result, SERVICE_METRICS)
    result.put("wm.make_us_per_fact",
               ctx.clock.scaled("bench", *bare) * 1e6 / made, "us", made)
    result.put("durability.wal_bytes_per_event", 0, "B")
    result.put("durability.replay_ms_per_1k_records", 0, "ms")
    result.put("rdb.rows_examined_per_row", _ratio(
        work.rows_scanned + work.pairs_examined,
        layers.counters.get("dips_rows_retrieved", 0)), "count")
    result.put("trace.overhead_frac",
               _work_seconds(ctx, traced) / _work_seconds(ctx, plain) - 1.0,
               "frac")
    result.put("trace.coverage_frac", _coverage(tracer, traced), "frac")
    result.notes["span_file"] = str(_dump(ctx, name, tracer))
    result.outcome = {"engine": traced.outcome}
    return result


# -- served workloads ---------------------------------------------------------


def _wire_replay(tracer):
    """Do to a tick's request and response lines what the wire does: the
    server decodes the request lines and encodes every event line."""
    decode = tracer.wrap(protocol.decode_line, "service.decode")
    encode = tracer.wrap(protocol.encode_line, "service.encode")

    def replay(engine, batch, firings, outputs, derived):
        for request in (
            {"op": "assert", "id": 1, "session": "w0",
             "facts": [[c, v] for c, v in batch]},
            {"op": "run", "id": 2, "session": "w0"},
        ):
            decode(protocol.encode_line(request))
        records = engine.tracer.firings[firings:]
        for record in records:
            encode(protocol.firing_event(2, record))
        for text in engine.output[outputs:]:
            encode(protocol.event_line(2, "write", text=text))
        for event in derived:
            encode(protocol.fact_event(2, event.sign, event.wme))
        encode(protocol.ok_response(2, fired=len(records)))

    return replay


def _replay(stream, tracer, durable_dir):
    """One session's stream on an in-process engine; traced, the wire
    work is replayed beside it; a durable engine is recovered at the
    end, and must come back with the working memory it had."""
    durability = (DurabilityConfig(durable_dir, fsync="batch")
                  if durable_dir is not None else None)
    rep = embedded.window_repeat(
        stream, tracer, durability=durability,
        wire=_wire_replay(tracer) if tracer is not None else None,
    )
    rep.replayed_records = 0
    if durability is not None:
        rep.engine.close()
        recover = RuleEngine.recover
        if tracer is not None:
            recover = tracer.wrap(recover, "durability.recover")
        recovered = recover(durable_dir)
        rep.replayed_records = recovered.recovery_report.replayed_records
        rep.recovered_same = (
            embedded.outcome_of(recovered)[4] == rep.outcome[4]
        )
        recovered.close()
    return rep


def _steady_p50(ctx, intervals, skip):
    return stats.median([
        ctx.clock.scaled("bench", *i) * 1000.0 for i in intervals[skip:]
    ])


def _trace_served(name, ctx):
    durable = name == "serve_durable"
    warm = 4 if ctx.quick else gen.WINDOW_TICKS
    ticks = warm + (6 if ctx.quick else REPLAY_TICKS)
    stream = gen.window_stream(ctx.seed, 0, ticks)
    settle()
    plain = _replay(stream, None,
                    ctx.tmpdir() / "wal" if durable else None)
    settle()
    tracer = Recorder()
    try:
        traced = _replay(stream, tracer,
                         ctx.tmpdir() / "wal" if durable else None)
    finally:
        tracer.restore()
    bare, made = _bare_make_us(traced.sample_batch)
    replayed = perf_counter()

    # The served half, at half length and without its tail percentiles;
    # it stops the core clock when it ends.
    workload = getattr(serve_workloads, name)
    result = workload(ctx.shortened(0.5))
    served = dict(result.metrics)
    notes = result.notes
    result.metrics = {}
    result.counts = {}

    result.attempted += 2
    result.expect(plain.outcome == traced.outcome,
                  "the traced replay and the plain one ended differently")
    if durable:
        result.expect(plain.recovered_same and traced.recovered_same,
                      "the recovered engine's working memory differs")
    layers = _Layers(
        tracer, traced.built,
        ctx.clock.factor("bench", traced.setups[0][0], replayed),
    )
    layers.fill(result)
    result.put("wm.make_us_per_fact",
               ctx.clock.scaled("bench", *bare) * 1e6 / made, "us", made)
    events = sum(len(batch) for batch in stream)
    result.put("durability.wal_bytes_per_event",
               _ratio(layers.counters.get("wal_bytes", 0), events), "B")
    result.put("durability.replay_ms_per_1k_records", _ratio(
        layers.ms("durability.recover") * 1000.0,
        traced.replayed_records), "ms")
    result.put("rdb.rows_examined_per_row", 0, "count")

    result.put("service.create_miss_ms", notes["create_miss_ms"], "ms")
    result.put("service.create_hit_ms", notes["create_hit_ms"], "ms")
    result.put("service.decode_us_per_req",
               layers.per_call("service.decode", 1000.0), "us",
               layers.calls("service.decode"))
    result.put("service.encode_us_per_line",
               layers.per_call("service.encode", 1000.0), "us",
               layers.calls("service.encode"))
    result.put("service.event_lines_per_run",
               _ratio(notes["event_lines"], notes["ticks"]), "count")
    served_ms = served["ingest_p50_ms"][0] + served["run_p50_ms"][0]
    baseline_ms = (_steady_p50(ctx, plain.ingests, warm)
                   + _steady_p50(ctx, plain.runs, warm))
    result.put("service.overhead_ms_per_req",
               (served_ms - baseline_ms) / 2.0, "ms")
    result.put("service.overhead_frac",
               (served_ms - baseline_ms) / served_ms, "frac")
    facts = notes.get("facts_ms") or [0.0]
    result.put("service.facts_read_ms", stats.median(facts), "ms",
               len(facts))
    result.put("service.requests", notes["requests"], "count")
    result.put("service.refused", notes["refused"], "count")
    result.put("service.errors", notes["errors"], "count")
    runs = notes["run_ms"]
    result.put("service.run_p99_ms", stats.percentile(runs, 0.99), "ms",
               len(runs))
    result.put("service.run_max_ms", max(runs), "ms", len(runs))
    result.put("service.open_late_frac", notes["open_late_frac"], "frac")

    result.put("trace.overhead_frac",
               _work_seconds(ctx, traced) / _work_seconds(ctx, plain) - 1.0,
               "frac")
    result.put("trace.coverage_frac", _coverage(tracer, traced), "frac")
    result.notes["span_file"] = str(_dump(ctx, name, tracer))
    return result


def trace(name, ctx):
    if name in embedded.WORKLOADS:
        return _trace_embedded(name, ctx)
    return _trace_served(name, ctx)
