"""``serve_window`` and ``serve_durable``: what a tenant sees.

Two sessions of the shared WINDOW program on one server process, one
client thread and one connection each.  Tick counts are fixed by
``--seconds`` and the constants below, never by how fast the server is,
so every run of one seed does the same work.

The closed loop gives capacity (``events_per_s``); latencies come from
the open loop.  With two closed-loop clients on a server that runs one
request at a time, which client's ``assert`` queues behind whose ``run``
settles into one of two patterns per run, and the per-request medians
follow the pattern, not the code.
"""

from __future__ import annotations

from contextlib import ExitStack
from time import perf_counter

from harness import gen, served, stats
from harness.common import SRC, Result
from harness.programs import WINDOW

SESSIONS = 2
SETUP_REPEATS = 3

#: Open-loop arrival rates, ticks per second per client: about half of
#: what the closed loop reached on the reference box, and low enough
#: that one client's tick is answered before the other's is due (the
#: clients are half a period apart) even when a core is in a slow state:
#: queueing delay grows faster than service time, and dividing by the
#: core's speed cannot take that out.  Constants — a rate recalibrated
#: per run would hide a slowdown.
WINDOW_OPEN_RATE = 12.0
DURABLE_OPEN_RATE = 7.5

#: Ticks per client for each second of ``--seconds``.
WINDOW_CLOSED_TICKS_PER_S = 6.7
WINDOW_OPEN_TICKS_PER_S = 10.0
DURABLE_CLOSED_TICKS_PER_S = 2.4
DURABLE_OPEN_TICKS_PER_S = 10.0

EVENTS_PER_TICK = gen.WINDOW_FACTS + 1


#: Windows the open loop's pooled ticks are cut into for the tail
#: percentile, so that a stall in one cannot move it.
TAIL_WINDOWS = 3


def _tail_floor():
    """Ticks per client that give every window the samples p90 needs."""
    return -(-TAIL_WINDOWS * stats.min_samples(0.90) // SESSIONS)


def _start(ctx, stack, result, durable, total_ticks, fill=0):
    """Start the server and both sessions SETUP_REPEATS times, each time
    sending the first *fill* ticks in a closed loop; keep the last.
    Returns ``(server, drivers, wal_root, setups, fills)``."""
    tmp = ctx.tmpdir()
    streams = [gen.window_stream(ctx.seed, s, total_ticks)
               for s in range(SESSIONS)]
    setups, creates, fills = [], [], []
    repeats = 1 if ctx.quick else SETUP_REPEATS
    for attempt in range(repeats):
        wal_root = tmp / f"wal{attempt}" if durable else None
        attempt_stack = ExitStack()
        began = perf_counter()
        server = attempt_stack.enter_context(served.Server(
            SRC, tmp / "server.log", wal_root, ctx.server_cpu,
        ))
        server.start()
        drivers = []
        for s in range(SESSIONS):
            driver = served.SessionDriver(
                server.address, f"w{s}", streams[s], durable
            )
            attempt_stack.callback(driver.close)
            drivers.append(driver)
            driver.create(WINDOW)
            driver.preload()
        setups.append((began, perf_counter()))
        creates.append([d.create_ms for d in drivers])
        if fill:
            fills.append(
                served.closed_loop(drivers, fill, served.Samples())
            )
        result.expect(
            drivers[0].rulebase_hit is False
            and drivers[1].rulebase_hit is True,
            "the second session did not share the first one's rule base",
        )
        if attempt < repeats - 1:
            _absorb(result, drivers)
            attempt_stack.close()
        else:
            stack.push(attempt_stack)
    result.notes["create_miss_ms"] = stats.median([c[0] for c in creates])
    result.notes["create_hit_ms"] = stats.median([c[1] for c in creates])
    return server, drivers, wal_root, setups, fills


def _absorb(result, drivers):
    for driver in drivers:
        result.attempted += driver.attempted
        result.failed += driver.failed + driver.wrong
        result.problems.extend(driver.problems)
        driver.attempted = driver.failed = driver.wrong = 0
        driver.problems = []


def _server_counters(result, server):
    with served.connect(server.address) as client:
        counters = client.stats()["server"]
    refused = sum(counters.get(k, 0) for k in (
        "busy_rejections", "deadline_rejections", "drain_rejections",
    ))
    errors = sum(counters.get(k, 0) for k in (
        "protocol_errors", "engine_errors", "internal_errors",
        "unavailable_errors",
    ))
    result.expect(refused == 0 and errors == 0,
                  f"server counted {refused} refusals, {errors} errors")
    for key, value in (("requests", counters.get("requests", 0)),
                       ("refused", refused), ("errors", errors)):
        result.notes[key] = result.notes.get(key, 0) + value


def _finish(result, drivers):
    for driver in drivers:
        driver.check_final_state()
    _absorb(result, drivers)
    result.outcome = {
        driver.session: [driver.firings,
                         gen.window_expected_size(driver.ticks_done),
                         driver.writes.hexdigest()[:16]]
        for driver in drivers
    }
    result.notes["event_lines"] = sum(d.event_lines for d in drivers)
    result.notes["ticks"] = sum(d.ticks_done for d in drivers)


class _Report:
    """Turns raw intervals into metrics once the core clock is read."""

    def __init__(self, ctx, result):
        self.ctx = ctx
        self.result = result
        self.scaled = lambda a, b: ctx.clock.scaled("server", a, b)

    def seconds(self, name, intervals):
        values = [self.scaled(a, b) for a, b in intervals]
        self.result.put(name, stats.median(values), "s", len(values))

    def rate(self, name, phases, segments):
        """Median over the segments of every closed-loop phase."""
        rates = []
        for samples, start in phases:
            rates += stats.segment_rates(
                samples.finishes(), start, samples.concurrent_end(),
                EVENTS_PER_TICK, segments, self.scaled,
            )
        self.result.put(name, stats.median(rates), "1/s", len(rates))

    def latency(self, name, intervals, fraction):
        values = [self.scaled(a, b) * 1000.0 for a, b in intervals]
        self.result.put_percentile(name, [[v] for v in values], fraction,
                                   self.ctx.tails)
        return values

    def open_loop(self, samples):
        self.latency("ingest_p50_ms", samples.intervals("assert"), 0.50)
        runs = self.latency("run_p50_ms", samples.intervals("run"), 0.50)
        self.latency("tick_p50_ms", samples.intervals("tick"), 0.50)
        self.latency("tick_p90_ms", samples.intervals("tick"), 0.90)
        self.result.notes["open_late_frac"] = samples.late_fraction()
        self.result.notes["run_ms"] = runs


def serve_window(ctx):
    """Non-durable: fill the window, closed loop, then open loop."""
    result = Result()
    closed = ctx.scale(WINDOW_CLOSED_TICKS_PER_S, quick=6)
    opened = ctx.scale(WINDOW_OPEN_TICKS_PER_S, _tail_floor(), quick=6)
    warm = 4 if ctx.quick else gen.WINDOW_TICKS
    with ExitStack() as stack:
        server, drivers, _, setups, fills = _start(
            ctx, stack, result, False, warm + closed + opened, fill=warm
        )
        phase_a = served.Samples()
        start_a, _ = served.closed_loop(drivers, closed, phase_a)
        phase_b = served.Samples()
        served.open_loop(drivers, opened, WINDOW_OPEN_RATE, phase_b)

        _finish(result, drivers)
        _server_counters(result, server)
        result.put("peak_rss_mb", server.peak_rss_mb(), "MB")
        server.stop()
    ctx.clock.stop()
    report = _Report(ctx, result)
    report.seconds("setup_s", setups)
    report.seconds("bulk_s", fills)
    report.rate("events_per_s", [(phase_a, start_a)], 5)
    report.open_loop(phase_b)
    result.notes["facts_ms"] = [
        report.scaled(a, b) * 1000.0
        for a, b in phase_a.intervals("facts")
    ]
    return result


def serve_durable(ctx):
    """Durable sessions: closed loop with one checkpoint at mid-run,
    SIGKILL, restart and resume, then the open loop on what resumed."""
    result = Result()
    half = ctx.scale(DURABLE_CLOSED_TICKS_PER_S / 2, quick=3)
    opened = ctx.scale(DURABLE_OPEN_TICKS_PER_S, _tail_floor(), quick=4)
    warm = 4 if ctx.quick else gen.WINDOW_TICKS
    with ExitStack() as stack:
        server, drivers, wal_root, setups, _ = _start(
            ctx, stack, result, True, warm + 2 * half + opened
        )
        served.closed_loop(drivers, warm, served.Samples())

        first = served.Samples()
        start_first, _ = served.closed_loop(drivers, half, first)
        result.expect(drivers[0].checkpoint() is not None,
                      "checkpoint failed")
        second = served.Samples()
        start_second, _ = served.closed_loop(drivers, half, second)

        # One session now resumes from its checkpoint and a short log,
        # the other from its whole log.
        before = [driver.dump() for driver in drivers]
        _server_counters(result, server)
        rss = server.peak_rss_mb()
        server.kill()
        reborn = stack.enter_context(served.Server(
            SRC, ctx.tmpdir() / "server.log", wal_root, ctx.server_cpu,
        ))
        reborn.start()
        for driver in drivers:
            driver.reconnect(reborn.address)
        began = perf_counter()
        answers = [driver.create(WINDOW, resume=True) for driver in drivers]
        recovered = (began, perf_counter())
        result.expect(
            all(a is not None and a.get("resumed") for a in answers),
            "a session did not resume",
        )
        after = [driver.dump() for driver in drivers]
        result.expect(before == after and None not in after,
                      "working memory after resume differs from before "
                      "the kill")

        phase_b = served.Samples()
        served.open_loop(drivers, opened, DURABLE_OPEN_RATE, phase_b)
        _finish(result, drivers)
        _server_counters(result, reborn)
        result.put("peak_rss_mb", max(rss, reborn.peak_rss_mb()), "MB")
        reborn.stop()
    ctx.clock.stop()
    report = _Report(ctx, result)
    report.seconds("setup_s", setups)
    report.seconds("bulk_s", [recovered])
    report.rate("events_per_s",
                [(first, start_first), (second, start_second)], 3)
    report.open_loop(phase_b)
    result.notes["facts_ms"] = [
        report.scaled(a, b) * 1000.0
        for phase in (first, second) for a, b in phase.intervals("facts")
    ]
    return result
