"""``embed_bulk``, ``act_collection`` and ``dips_sql``: the library,
no service.

Each workload is a *repeat* on a fresh engine, run once to warm up and
then at least MIN_REPEATS times; one-off quantities are reported as the
median over repeats, per-batch latencies are pooled over them.
"""

from __future__ import annotations

from time import perf_counter

from harness import engines, gen, stats
from harness.common import Result, digest, own_peak_rss_mb, settle
from harness.programs import ACT_SET, ACT_TUPLE, DIPS, KERNEL, WINDOW

MIN_REPEATS = 5

#: Engine builds timed per repeat for ``setup_s``; the last one is used.
SETUP_BUILDS = 15

#: Seconds one repeat takes on the reference box: ``--seconds`` buys
#: ``seconds / REPEAT_S`` repeats, MIN_REPEATS at least.
REPEAT_S = {"embed_bulk": 1.5, "act_collection": 2.5, "dips_sql": 2.5}

BULK_ORDERS = 50_000
BULK_BATCHES = 40
BULK_PER_BATCH = 50

ACT_TUPLE_ITEMS = 2_000
ACT_SET_ITEMS = 10_000
#: Fresh engines the tuple collection is loaded into per repeat, for
#: ``ingest_p50_ms``; the last one is run.
ACT_LOADS = 5

DIPS_LOAD_BATCHES = 10
DIPS_LOAD_PER_BATCH = 300
DIPS_UPDATE_BATCHES = 40
DIPS_UPDATE_PER_BATCH = 25


class Repeat:
    """The raw intervals of one repeat."""

    def __init__(self):
        self.setups = []
        self.bulk = []          # intervals summed into ``bulk_s``
        self.ingests = []
        self.runs = []
        self.ticks = []
        self.main = []          # intervals ``events_per_s`` divides by
        self.timed = []         # every timed interval, each once
        self.events = 0
        self.outcome = None
        self.built = []
        self.sample_batch = None    # the first batch of facts ingested
        self.expectations = []      # (held, message) beyond the outcome

    def build(self, program, matcher, tracer, durability=None):
        """Time SETUP_BUILDS builds (one when traced or durable, where a
        build leaves a log behind); keep the last."""
        once = tracer is not None or durability is not None
        for _ in range(1 if once else SETUP_BUILDS):
            built = engines.build(program, matcher, tracer, durability)
            self.setups.append(built.interval)
            self.timed.append(built.interval)
        if tracer is not None:
            self.built.append(built)    # its MatchStats are read later
        return built.engine

    def tick(self, ingest, run):
        self.ingests.append(ingest)
        self.runs.append(run)
        self.ticks.append((ingest[0], run[1]))
        self.timed += [ingest, run]


def outcome_of(*engines_):
    """What a correct run leaves behind: firings, working-memory size,
    and digests of the firing sequence, the ``write`` output and the
    final working memory."""
    return [
        sum(e.cycle_count for e in engines_),
        sum(len(e.wm) for e in engines_),
        digest((r.rule_name, r.time_tags) for e in engines_
               for r in e.tracer.firings),
        digest(line for e in engines_ for line in e.output),
        digest((w.wme_class, w.time_tag, sorted(w.as_dict().items()))
               for e in engines_ for w in e.wm),
    ]


# -- embed_bulk ---------------------------------------------------------------


def bulk_sizes(ctx):
    if ctx.quick:
        return 1_500, 4, 10
    return BULK_ORDERS, BULK_BATCHES, BULK_PER_BATCH


def bulk_inputs(seed, sizes):
    count, batches, per_batch = sizes
    orders = gen.kernel_orders(seed, count)
    return (orders, gen.kernel_depts(),
            gen.kernel_updates(seed, orders, batches, per_batch))


def bulk_repeat(inputs, tracer=None, matcher="rete"):
    orders, depts, updates = inputs
    rep = Repeat()
    engine = rep.build(KERNEL, matcher, tracer)
    # Depts load after the orders: each dept token then left-activates
    # the joins and scans the order memories.
    rep.sample_batch = orders
    live, loaded = engines.ingest(engine, orders, tracer)
    _, staffed = engines.ingest(engine, depts, tracer)
    _, ran = engines.run(engine, tracer)
    rep.bulk = [loaded, staffed, ran]
    rep.timed += rep.bulk
    rep.events = len(orders) + len(depts)
    for number, batch in enumerate(updates):
        if tracer is not None:
            tracer.tick = number
        ingest = engines.modify(engine, live, batch, tracer)
        rep.tick(ingest, engines.run(engine, tracer)[1])
        rep.events += len(batch)
    rep.main = rep.bulk + rep.ticks
    rep.outcome = outcome_of(engine)
    return rep


# -- act_collection -----------------------------------------------------------


def act_sizes(ctx):
    if ctx.quick:
        return 100, 300
    return ACT_TUPLE_ITEMS, ACT_SET_ITEMS


def act_inputs(seed, sizes):
    return gen.act_items(seed, sizes[0]), gen.act_items(seed, sizes[1])


def act_repeat(inputs, tracer=None, matcher="rete"):
    tuple_items, set_items = inputs
    rep = Repeat()
    rep.sample_batch = tuple_items

    # Tuple-oriented: one firing per item.  Each recognize-act cycle is
    # timed, so the tick percentiles are time per firing while the
    # conflict set drains from N.
    for _ in range(1 if tracer is not None else ACT_LOADS):
        tuple_engine = rep.build(ACT_TUPLE, matcher, tracer)
        rep.ingests.append(
            engines.ingest(tuple_engine, tuple_items, tracer)[1]
        )
    step = tuple_engine.step
    if tracer is not None:
        step = tracer.wrap(step, "engine.run")
    began = before = perf_counter()
    while step() is not None:
        after = perf_counter()
        rep.ticks.append((before, after))
        if tracer is not None:
            tracer.tick = len(rep.ticks)
        before = after
    rep.main = [(began, before)]
    rep.timed += rep.ingests + rep.main
    rep.events = len(tuple_items) - 1

    # Set-oriented: one firing, one N-member set-modify.
    set_engine = rep.build(ACT_SET, matcher, tracer)
    _, loaded = engines.ingest(set_engine, set_items, tracer)
    _, ran = engines.run(set_engine, tracer)
    rep.runs.append(ran)
    rep.bulk = [loaded, ran]
    rep.timed += rep.bulk
    rep.outcome = outcome_of(tuple_engine, set_engine)
    marked = sum(
        1 for engine in (tuple_engine, set_engine)
        for wme in engine.wm.of_class("item") if wme.get("status") == "done"
    )
    items = len(tuple_items) + len(set_items) - 2
    rep.expectations.append((
        marked == items, f"{marked} of {items} items marked done",
    ))
    return rep


# -- dips_sql -----------------------------------------------------------------


def dips_sizes(ctx):
    if ctx.quick:
        return 3, 40, 4, 5
    return (DIPS_LOAD_BATCHES, DIPS_LOAD_PER_BATCH,
            DIPS_UPDATE_BATCHES, DIPS_UPDATE_PER_BATCH)


def dips_inputs(seed, sizes):
    load_batches, load_per, update_batches, update_per = sizes
    return (gen.dips_depts(),
            gen.dips_emps(seed, load_batches, load_per),
            gen.dips_updates(seed, load_batches * load_per,
                             update_batches, update_per))


def dips_repeat(inputs, tracer=None, matcher="dips"):
    depts, loads, updates = inputs
    rep = Repeat()
    rep.sample_batch = loads[0]
    engine = rep.build(DIPS, matcher, tracer)
    rep.bulk.append(engines.ingest(engine, depts, tracer)[1])
    rep.events = len(depts)
    live = []
    for batch in loads:
        made, loaded = engines.ingest(engine, batch, tracer)
        live.extend(made)
        rep.bulk += [loaded, engines.run(engine, tracer)[1]]
        rep.events += len(batch)
    rep.timed += rep.bulk
    for number, batch in enumerate(updates):
        if tracer is not None:
            tracer.tick = number
        ingest = engines.modify(engine, live, batch, tracer)
        rep.tick(ingest, engines.run(engine, tracer)[1])
        rep.events += len(batch)
    rep.main = rep.bulk + rep.ticks
    rep.outcome = outcome_of(engine)
    engine.close()
    return rep


# -- the served tick stream, embedded -----------------------------------------


def window_repeat(stream, tracer=None, matcher="rete", durability=None,
                  wire=None):
    """One session's ticks on an in-process engine: the single-threaded
    baseline of the served workloads, and their reduced-size check.

    A durable engine is checkpointed at mid-stream, as the served
    session is.  *wire*, when given, is called after every tick with
    the engine, the batch, how many firings and ``write`` lines there
    were before the tick, and the working-memory events its ``run``
    derived — what the server would have put on the wire.
    """
    rep = Repeat()
    rep.sample_batch = stream[0]
    engine = rep.build(WINDOW, matcher, tracer, durability)
    engines.ingest(engine, gen.window_depts(), tracer)
    derived = []
    for number, batch in enumerate(stream):
        before = (len(engine.tracer.firings), len(engine.output))
        if tracer is not None:
            tracer.tick = number
        _, ingest = engines.ingest(engine, batch, tracer)
        if wire is not None:
            engine.wm.attach(derived.append)    # as the server's run does
        rep.tick(ingest, engines.run(engine, tracer)[1])
        if wire is not None:
            engine.wm.detach(derived.append)
            wire(engine, batch, *before, derived)
            del derived[:]
        if durability is not None and number == len(stream) // 2:
            engine.checkpoint()
    rep.outcome = outcome_of(engine)
    rep.engine = engine
    return rep


# -- the shared runner --------------------------------------------------------

WORKLOADS = {
    "embed_bulk": (bulk_sizes, bulk_inputs, bulk_repeat, "rete"),
    "act_collection": (act_sizes, act_inputs, act_repeat, "rete"),
    "dips_sql": (dips_sizes, dips_inputs, dips_repeat, "dips"),
}


def measure(name, ctx):
    """Warm up once, repeat, and report."""
    sizes_of, inputs_of, repeat, _matcher = WORKLOADS[name]
    inputs = inputs_of(ctx.seed, sizes_of(ctx))
    result = Result()
    count = 1 if ctx.quick else max(
        MIN_REPEATS, round(ctx.seconds / REPEAT_S[name])
    )
    repeats = []
    for index in range(count if ctx.quick else count + 1):
        settle()
        repeats.append(repeat(inputs))
        result.attempted += 1
        result.expect(
            repeats[-1].outcome == repeats[0].outcome,
            f"repeat {index} ended in {repeats[-1].outcome}, the first "
            f"in {repeats[0].outcome}",
        )
    if not ctx.quick:
        del repeats[0]          # the first full repeat only warms up
    result.outcome = {"engine": repeats[0].outcome}
    for held, message in repeats[0].expectations:
        result.expect(held, message)
    result.put("peak_rss_mb", own_peak_rss_mb(), "MB")
    ctx.clock.stop()

    def scaled(interval):
        return ctx.clock.scaled("bench", *interval)

    def total(intervals):
        return sum(scaled(interval) for interval in intervals)

    result.put(
        "setup_s",
        stats.median([scaled(i) for r in repeats for i in r.setups]), "s",
        sum(len(r.setups) for r in repeats),
    )
    result.put(
        "events_per_s",
        stats.median([r.events / total(r.main) for r in repeats]), "1/s",
        count,
    )
    result.put("bulk_s", stats.median([total(r.bulk) for r in repeats]),
               "s", count)
    for metric, attribute, fraction in (
        ("ingest_p50_ms", "ingests", 0.50),
        ("run_p50_ms", "runs", 0.50),
        ("tick_p50_ms", "ticks", 0.50),
        ("tick_p90_ms", "ticks", 0.90),
    ):
        chunks = [[scaled(i) * 1000.0 for i in getattr(r, attribute)]
                  for r in repeats]
        if all(len(chunk) == 1 for chunk in chunks):
            # One sample a repeat: a median over repeats, as above.
            result.put(metric, stats.median([c[0] for c in chunks]), "ms",
                       count)
            continue
        result.put_percentile(metric, chunks, fraction, ctx.tails)
    return result
