"""Building an embedded engine, plain or traced.

A traced engine is an ordinary :class:`RuleEngine` whose layer
boundaries are wrapped from here: a matcher subclass that times
``on_event``/``on_batch``, and wrappers round conflict-set selection,
firing and the write-ahead log.  An untraced engine is exactly what a
user of the library gets.
"""

from __future__ import annotations

from time import perf_counter

import repro.dips.matcher as dips_matcher_module
from repro import MatchStats, RuleEngine, parse_program
from repro.dips.matcher import DipsMatcher
from repro.rete import ReteNetwork

_MATCHERS = {"rete": ReteNetwork, "dips": DipsMatcher}


def _traced_matcher(kind, tracer):
    base = _MATCHERS[kind]

    class TracedMatcher(base):
        """*base*, with every delivery of working-memory changes timed."""

        def __init__(self):
            super().__init__()
            self.on_event = tracer.wrap(super().on_event, f"{kind}.match")
            self.on_batch = tracer.wrap(super().on_batch, f"{kind}.match")

    matcher = TracedMatcher()
    if kind == "dips":
        tracer.patch(matcher.store, "apply_batch", "dips.cond_apply")
        tracer.patch(dips_matcher_module, "run_sql", "rdb.run_sql")
    return matcher


class Built:
    """An engine with its program loaded, and when building it began
    and ended."""

    def __init__(self, engine, interval, stats=None):
        self.engine = engine
        self.interval = interval
        self.stats = stats


def build(program, matcher="rete", tracer=None, durability=None):
    """Engine build + parse + compile: what ``setup_s`` counts."""
    began = perf_counter()
    if tracer is None:
        engine = RuleEngine(
            matcher=None if matcher == "rete" else matcher,
            durability=durability,
        )
        engine.load(program)
        return Built(engine, (began, perf_counter()))
    stats = MatchStats()
    engine = RuleEngine(matcher=_traced_matcher(matcher, tracer),
                        stats=stats, durability=durability)
    trace_engine(engine, tracer)
    literalizations, rules = tracer.call("lang.parse", parse_program,
                                         program)
    for wme_class, attributes in literalizations:
        engine.literalize(wme_class, *attributes)
    for rule in rules:
        tracer.call("engine.add_rule", engine.add_rule, rule)
    return Built(engine, (began, perf_counter()), stats)


def trace_engine(engine, tracer):
    """Wrap the engine-side layer boundaries of one engine."""
    conflict_set = engine.conflict_set
    tracer.patch(conflict_set, "select", "engine.select")
    select = conflict_set.select

    def select_and_gauge(strategy):
        tracer.gauge("conflict_set_peak", len(conflict_set))
        return select(strategy)

    conflict_set.select = select_and_gauge
    tracer.patch(engine, "fire", "engine.fire")
    if engine.durability is not None:
        tracer.patch(engine.durability.wal, "append", "durability.append")
        tracer.patch(engine.durability.wal, "sync", "durability.sync")
        tracer.patch(engine.durability, "checkpoint",
                     "durability.checkpoint")


def _timed(tracer, name, function, *args):
    """``(result, (start, end))`` of one driver-level operation, inside
    a root span when traced."""
    began = perf_counter()
    if tracer is None:
        value = function(*args)
    else:
        value = tracer.call(name, function, *args)
    return value, (began, perf_counter())


def ingest(engine, facts, tracer=None):
    """One batch of new facts; returns ``(wmes, interval)``."""
    return _timed(tracer, "wm.ingest", engine.load_facts, facts)


def modify(engine, live, updates, tracer=None):
    """One batch of ``modify``s of ``live[index]``; the new WME takes
    the old one's place.  Returns the interval."""

    def apply():
        with engine.batch():
            for index, values in updates:
                live[index] = engine.modify(live[index], **values)

    return _timed(tracer, "wm.ingest", apply)[1]


def run(engine, tracer=None):
    """Run to quiescence; returns ``(firings, interval)``."""
    return _timed(tracer, "engine.run", engine.run)
