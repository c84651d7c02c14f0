#!/usr/bin/env python
"""Benchmark regression gate: match-work counters vs. a committed baseline.

Runs a fixed set of deterministic scenarios with :class:`MatchStats`
attached, writes the counters to ``BENCH_44.json``, and — under
``--check`` — fails if any gated work
counter regressed more than 10% against the newest committed
``benchmarks/BENCH_<n>.json`` report (falling back to
``benchmarks/BENCH_baseline.json`` when none exists; a clear error and
exit code 2 when there is no baseline at all).

The ``storage_1m_*`` scenarios exercise the relational substrate
itself: one million WMEs streamed through :class:`CondStore` in
batched set-oriented statements, ten thousand incremental updates,
and one grouped SOI-retrieval query — once on the memory backend and
once on sqlite with native SQL pushdown.  Their gated counters are
statement and row counts (exact on any machine).

The ``dips_update_stream`` scenario runs a DIPS program through bulk
loads, small modify batches and a negated CE's blocker coming and
going, and gates what the matcher asked of the database: queries run,
rows retrieved, rows its plans read, and how often a rule fell back to
its full query (exactly twice — the two blocker batches).

Only *work counters* are gated (join activations, join tests, alpha
activations, index/group probes): they are exact and machine
independent.  Timings are the repo benchmark's job (``perf/run.py``,
repeated and bounded); the per-scenario ``elapsed_s`` here only says
how long the gate took.  Counter *improvements* beyond 10% are
reported as a hint to refresh the baseline with ``--write-baseline``.

Usage::

    python benchmarks/bench_report.py                  # report only
    python benchmarks/bench_report.py --check          # gate vs baseline
    python benchmarks/bench_report.py --write-baseline # refresh baseline
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro import MatchStats, RuleEngine
from repro.rete import ReteNetwork
from repro.wm.wme import NIL, WME, shape_of

BASELINE_PATH = Path(__file__).parent / "BENCH_baseline.json"
DEFAULT_OUTPUT = Path("BENCH_44.json")


def latest_reference(exclude=None):
    """The newest committed ``BENCH_<n>.json``, else the baseline.

    Committed numbered reports carry the same counter payload as the
    baseline, so the gate always compares against the most recent
    accepted run rather than a stale hand-written baseline.  ``exclude``
    skips the report the current run just wrote — gating a report
    against itself always passes.  Returns ``None`` when neither a
    numbered report nor the baseline file exists — callers must handle
    that explicitly rather than trip over a missing file
    mid-comparison.
    """
    exclude = exclude.resolve() if exclude is not None else None
    best = None
    for path in BASELINE_PATH.parent.glob("BENCH_*.json"):
        if exclude is not None and path.resolve() == exclude:
            continue
        stem = path.stem[len("BENCH_"):]
        if stem.isdigit() and (best is None or int(stem) > best[0]):
            best = (int(stem), path)
    if best is not None:
        return best[1]
    return BASELINE_PATH if BASELINE_PATH.exists() else None

# Work counters held to the +/-10% gate.  Everything in
# MatchStats.totals lands in the report; only these fail the build.
GATED_COUNTERS = (
    "right_activations",
    "left_activations",
    "join_tests_attempted",
    "alpha_activations",
    "index_probes",
    "group_probes",
    "snode_batch_reevals",
    # Storage-backend scenarios: exact statement/row counts.
    "storage_batch_statements",
    "storage_cond_rows",
    "storage_soi_groups",
    "storage_soi_rows",
    "storage_statements_pushed",
    # DIPS scenario: what the delta-driven matcher asks of the rdb.
    "dips_queries_run",
    "dips_rows_retrieved",
    "dips_rows_scanned",
    "dips_full_refreshes",
    # Service scenarios: request/ingest/firing volume is deterministic
    # for a fixed fleet; compile counts prove rule-base sharing.
    "service_requests",
    "service_facts_ingested",
    "service_firings",
    "service_rulebase_compiles",
    "service_sessions_built",
    # What the server wrote back: batch lines keep these low.
    "service_response_lines",
    "service_response_bytes",
    # Chaos scenario: exactly-once semantics make ingest/firing totals
    # deterministic even under seeded fault injection.
    "service_chaos_facts_ingested",
    "service_chaos_firings",
    # Hot-reload scenario: N tenants replacing the same rule fork one
    # rule base — never N.
    "service_reload_rulebase_compiles",
    "service_reload_forks",
    "service_reload_sessions_built",
    "service_reload_firings",
)
# Deterministic counters that must match the baseline *exactly*:
# losing native pushdown shows as a decrease, which the one-sided
# tolerance gate would misread as an improvement.
EXACT_COUNTERS = (
    "storage_statements_pushed",
    # The negation fallback fires for the two blocker batches only; a
    # tolerance gate cannot see a count this small move.
    "dips_full_refreshes",
    # N sessions of one program must cost exactly one parse/compile.
    "service_rulebase_compiles",
    "service_sessions_built",
    # A fixed fleet gets the same responses, byte for byte: a wire that
    # grows back toward a line per event shows here first.
    "service_response_lines",
    "service_response_bytes",
    # Keyed retries must dedup: any drift here is a lost or
    # double-applied batch, not noise.
    "service_chaos_facts_ingested",
    "service_chaos_firings",
    # Copy-on-write reload: one compile, one fork, N sessions — drift
    # in any direction means the sharing contract broke.
    "service_reload_rulebase_compiles",
    "service_reload_forks",
    "service_reload_sessions_built",
    "service_reload_firings",
)
TOLERANCE = 0.10

PROGRAM = """
(literalize dept name)
(literalize emp name dept salary)
(p dept-size
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -->
  (write staffed <d> (count <staff>)))
"""

N_EMPLOYEES = 2_000
N_DEPTS = 20


def _engine(batched):
    stats = MatchStats()
    engine = RuleEngine(matcher=ReteNetwork(batched=batched), stats=stats)
    engine.load(PROGRAM)
    for d in range(N_DEPTS):
        engine.make("dept", name=f"d{d}")
    return engine, stats


def _facts(count=N_EMPLOYEES):
    return [
        ("emp", {
            "name": f"e{i}",
            "dept": f"d{i % N_DEPTS}",
            "salary": 1000 + (i % 997),
        })
        for i in range(count)
    ]


def scenario_bulk_load_per_event():
    engine, stats = _engine(batched=False)
    for wme_class, values in _facts():
        engine.make(wme_class, **values)
    engine.run()
    return stats


def scenario_bulk_load_batched():
    engine, stats = _engine(batched=True)
    engine.load_facts(_facts())
    engine.run()
    return stats


def scenario_churn_batched():
    engine, stats = _engine(batched=True)
    staff = engine.load_facts(_facts(600))
    engine.run()
    with engine.batch():
        for i, wme in enumerate(staff):
            if i % 3 == 0:
                engine.remove(wme)
            elif i % 3 == 1:
                engine.modify(wme, salary=wme.get("salary") + 1)
            else:
                scratch = engine.make(
                    "emp", name=f"tmp{i}", dept=wme.get("dept"), salary=0
                )
                engine.remove(scratch)
    engine.run()
    return stats


# -- storage-backend scenarios (out-of-core DIPS, ISSUE PR 6) -------------

N_STORAGE_WMES = 1_000_000
STORAGE_CHUNK = 20_000
N_STORAGE_UPDATES = 10_000
STORAGE_UPDATE_CHUNK = 100
N_STORAGE_OWNERS = 1_000

STORAGE_RULES = (
    "(p probe (item ^owner <o> ^v <v>) --> (halt))",
    "(p hot (item ^owner o1 ^v <v>) --> (halt))",
)

STORAGE_RETRIEVAL = (
    "SELECT owner, COUNT(*) AS n FROM \"COND-item\" "
    "WHERE wme_tag IS NOT NULL AND rule_id = 'probe' GROUP BY owner"
)


#: The one shape every streamed ``item`` fact shares, as in a
#: working memory.
_ITEM_SHAPE = shape_of(("owner", "v"))


def _bench_wme(tag, owner, v):
    """An ``item`` WME built without a working memory, for CondStore
    streaming."""
    return WME.unchecked("item", _ITEM_SHAPE, (owner, v, NIL), tag)


class _BenchEvent:
    __slots__ = ("is_add", "wme")

    def __init__(self, is_add, wme):
        self.is_add = is_add
        self.wme = wme


def _storage_scenario(backend):
    """1M-WME bulk load + incremental updates + grouped retrieval."""
    from repro.dips.cond import CondStore
    from repro.lang.parser import parse_rule
    from repro.rdb.sql import run_sql

    stats = MatchStats()
    store = CondStore(backend=backend)
    for source in STORAGE_RULES:
        store.add_rule(parse_rule(source))
    statements = 0
    load_start = time.perf_counter()
    for base in range(0, N_STORAGE_WMES, STORAGE_CHUNK):
        statements += store.apply_batch([
            _BenchEvent(True, _bench_wme(
                base + i + 1,
                f"o{(base + i) % N_STORAGE_OWNERS}",
                (base + i) % 97,
            ))
            for i in range(STORAGE_CHUNK)
        ]).statements
    load_elapsed = time.perf_counter() - load_start
    update_start = time.perf_counter()
    for base in range(0, N_STORAGE_UPDATES, STORAGE_UPDATE_CHUNK):
        events = []
        for i in range(STORAGE_UPDATE_CHUNK):
            old_tag = base + i + 1
            events.append(_BenchEvent(False, _bench_wme(old_tag, "", 0)))
            events.append(_BenchEvent(True, _bench_wme(
                N_STORAGE_WMES + old_tag,
                f"o{old_tag % N_STORAGE_OWNERS}",
                old_tag % 97,
            )))
        statements += store.apply_batch(events).statements
    update_elapsed = time.perf_counter() - update_start
    retrieve_start = time.perf_counter()
    groups = run_sql(store.db, STORAGE_RETRIEVAL)
    retrieve_elapsed = time.perf_counter() - retrieve_start

    # These are report counters, not matcher-event totals, so they go
    # straight into .totals (what run_scenarios records).
    stats.totals["storage_batch_statements"] = statements
    stats.totals["storage_cond_rows"] = len(store.cond_table("item"))
    stats.totals["storage_soi_groups"] = len(groups)
    stats.totals["storage_soi_rows"] = sum(row["n"] for row in groups)
    stats.totals["storage_statements_pushed"] = getattr(
        store.db.backend, "statements_pushed", 0
    )
    # Informational timings (never gated, machine dependent).
    stats.totals["storage_load_ms"] = int(load_elapsed * 1000)
    stats.totals["storage_update_ms"] = int(update_elapsed * 1000)
    stats.totals["storage_retrieve_ms"] = int(retrieve_elapsed * 1000)
    store.db.close()
    return stats


def scenario_storage_1m_memory():
    from repro.rdb.memory_backend import MemoryBackend

    return _storage_scenario(MemoryBackend())


def scenario_storage_1m_sqlite():
    from repro.rdb.sqlite_backend import SqliteBackend

    return _storage_scenario(SqliteBackend())


# -- delta-driven DIPS (ISSUE 23) ------------------------------------------

DIPS_PROGRAM = PROGRAM + """
(literalize hold dept)
(p top-paid
  (dept ^name <d>)
  (emp ^dept <d> ^salary > 1990 ^name <n>)
  -->
  (write top <n> <d>))
(p open-dept
  (dept ^name <d>)
  -(hold ^dept <d>)
  -->
  (write open <d>))
"""
DIPS_LOAD_BATCH = 500
DIPS_UPDATE_BATCHES = 20
DIPS_UPDATE_BATCH = 25


def scenario_dips_update_stream():
    """Bulk loads, modify batches, then a blocker added and removed."""
    from repro.dips import DipsMatcher
    from repro.rdb import plan_counters

    stats = MatchStats()
    engine = RuleEngine(matcher=DipsMatcher(backend="memory"), stats=stats)
    engine.load(DIPS_PROGRAM)
    facts = _facts()
    with plan_counters() as work:
        engine.load_facts([("dept", {"name": f"d{d}"})
                           for d in range(N_DEPTS)])
        staff = []
        for base in range(0, len(facts), DIPS_LOAD_BATCH):
            staff.extend(
                engine.load_facts(facts[base:base + DIPS_LOAD_BATCH])
            )
            engine.run()
        for batch in range(DIPS_UPDATE_BATCHES):
            with engine.batch():
                for offset in range(DIPS_UPDATE_BATCH):
                    index = (batch * 97 + offset * 41) % len(staff)
                    staff[index] = engine.modify(
                        staff[index], salary=1000 + (batch * 53 + offset)
                    )
            engine.run()
        hold = engine.make("hold", dept="d3")
        engine.run()
        engine.remove(hold)
        engine.run()
    for name in ("dips_queries_run", "dips_rows_retrieved",
                 "dips_full_refreshes", "dips_batch_statements"):
        stats.totals[name] = stats.counters[name]
    stats.totals["dips_rows_scanned"] = work.rows_scanned
    stats.totals["dips_firings"] = len(engine.tracer.firings)
    engine.close()
    return stats


# -- service scenarios -------------------------------------------------
#
# Each one boots an in-process rule service and drives it with the
# load generator: N concurrent sessions x assert/run ticks.  The work
# counters (requests, facts, firings) are deterministic for a fixed
# fleet; the rule-base counters pin the sharing contract — however
# many sessions, one compile per distinct (program, matcher, backend).

SERVICE_SESSIONS = 8
SERVICE_TICKS = 5
SERVICE_FACTS = 40


class _ServiceCounters:
    """Adapter giving loadgen results the ``.totals`` shape the
    scenario runner records."""

    def __init__(self, totals):
        self.totals = totals


def _service_scenario(label, matchers):
    from repro.service.loadgen import run_load
    from repro.service.server import ServiceConfig, ServiceThread

    with ServiceThread(ServiceConfig(port=0, engine_workers=4)) as server:
        host, port = server.address
        result = run_load(
            host, port,
            sessions=SERVICE_SESSIONS,
            ticks=SERVICE_TICKS,
            facts_per_tick=SERVICE_FACTS,
            matchers=matchers,
            session_prefix=label,
        )
    if result["errors"]:
        raise SystemExit(
            f"service scenario {label}: {result['errors']}"
        )
    stats = result["server"]
    return _ServiceCounters({
        "service_requests": stats["server"].get("requests", 0),
        "service_facts_ingested": stats["server"].get(
            "facts_ingested", 0
        ),
        "service_firings": result["firings"],
        "service_rulebase_compiles": stats["rule_bases"]["compiles"],
        "service_rulebase_hits": stats["rule_bases"]["hits"],
        "service_sessions_built": stats["rule_bases"][
            "sessions_built"
        ],
        "service_response_lines": stats["server"].get(
            "response_lines", 0
        ),
        "service_response_bytes": stats["server"].get(
            "response_bytes", 0
        ),
    })


def scenario_service_shared_rete():
    # One program, one matcher, eight tenants: exactly one compile.
    return _service_scenario("svc-rete", ("rete",))


def scenario_service_mixed_matchers():
    # Half rete, half naive: exactly two rule bases, shared 4 ways each.
    return _service_scenario("svc-mixed", ("rete", "naive"))


#: Seeded fault injection: roughly every tenth response line is torn
#: down or delayed, and ~4% of session ops kill the session outright.
#: ``wal_error`` stays off — a mid-firing WAL failure halts the run by
#: policy (non-retryable by design), which is not this scenario's point.
SERVICE_CHAOS = ("disconnect=0.03,partial=0.02,delay=0.05,"
                 "delay_s=0.001,kill=0.04,seed=29")


def scenario_service_chaos_keyed():
    """A durable idempotent fleet under chaos lands *exactly* the same
    ingest/firing totals as a quiet one: retries dedup, kills resume."""
    import tempfile

    from repro.service.loadgen import run_load
    from repro.service.server import ServiceConfig, ServiceThread

    label = "svc-chaos"
    with tempfile.TemporaryDirectory() as wal_root:
        with ServiceThread(ServiceConfig(
            port=0, engine_workers=4, wal_root=wal_root,
            chaos=SERVICE_CHAOS,
        )) as server:
            host, port = server.address
            result = run_load(
                host, port,
                sessions=4,
                ticks=4,
                facts_per_tick=10,
                matchers=("rete",),
                durable=True,
                idempotent=True,
                session_prefix=label,
            )
    if result["errors"]:
        raise SystemExit(
            f"service scenario {label}: {result['errors']}"
        )
    stats = result["server"]
    injected = stats.get("chaos", {}).get("injected", {})
    if not sum(injected.values()):
        raise SystemExit(
            f"service scenario {label}: chaos layer injected nothing"
        )
    return _ServiceCounters({
        "service_chaos_facts_ingested": stats["server"].get(
            "facts_ingested", 0
        ),
        "service_chaos_firings": result["firings"],
    })


RELOAD_SESSIONS = 6
RELOAD_FACTS = 100

#: Same rule name, new body: every tenant's reload is a pure replace.
RELOAD_RULE = """
(p dept-size
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 2)
  -->
  (write big <d> (count <staff>)))
""".strip()


def scenario_service_reload():
    """N tenants share one program; each hot-replaces the same rule
    with the same new body.  The copy-on-write contract is exact: one
    rule-base compile and ONE fork (tenants converge on it) — the N-1
    later reloads reuse it."""
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, ServiceThread

    label = "svc-reload"
    fired = 0
    with ServiceThread(ServiceConfig(port=0, engine_workers=4)) as server:
        with ServiceClient(*server.address) as client:
            sessions = [f"{label}-{i}" for i in range(RELOAD_SESSIONS)]
            for sid in sessions:
                client.create(sid, PROGRAM, durable=False)
                client.assert_facts(sid, [
                    ("dept", {"name": f"d{d}"}) for d in range(N_DEPTS)
                ])
                client.assert_facts(sid, _facts(RELOAD_FACTS))
                response, _ = client.run(sid)
                fired += response["fired"]
            for sid in sessions:
                client.replace_rule(sid, "dept-size", RELOAD_RULE)
                response, _ = client.run(sid)
                fired += response["fired"]
            stats = client.stats()
    bases = stats["rule_bases"]
    return _ServiceCounters({
        "service_reload_rulebase_compiles": bases["compiles"],
        "service_reload_forks": bases["forks"],
        "service_reload_sessions_built": bases["sessions_built"],
        "service_reload_firings": fired,
    })


SCENARIOS = {
    "bulk_load_per_event": scenario_bulk_load_per_event,
    "bulk_load_batched": scenario_bulk_load_batched,
    "churn_batched": scenario_churn_batched,
    "storage_1m_memory": scenario_storage_1m_memory,
    "storage_1m_sqlite": scenario_storage_1m_sqlite,
    "dips_update_stream": scenario_dips_update_stream,
    "service_shared_rete": scenario_service_shared_rete,
    "service_mixed_matchers": scenario_service_mixed_matchers,
    "service_chaos_keyed": scenario_service_chaos_keyed,
    "service_reload": scenario_service_reload,
}


def run_scenarios():
    report = {"schema": 1, "scenarios": {}}
    for name, fn in SCENARIOS.items():
        start = time.perf_counter()
        stats = fn()
        elapsed = time.perf_counter() - start
        report["scenarios"][name] = {
            "counters": dict(stats.totals),
            "elapsed_s": round(elapsed, 4),
        }
    return report


def compare(report, baseline):
    """Return (regressions, improvements) beyond the 10% tolerance."""
    regressions = []
    improvements = []
    for name, base in baseline.get("scenarios", {}).items():
        current = report["scenarios"].get(name)
        if current is None:
            regressions.append(f"{name}: scenario missing from report")
            continue
        for counter in GATED_COUNTERS:
            want = base["counters"].get(counter)
            got = current["counters"].get(counter)
            if want is None or got is None:
                continue
            if counter in EXACT_COUNTERS:
                if got != want:
                    regressions.append(
                        f"{name}.{counter}: {got} != {want} "
                        f"(must match exactly)"
                    )
                continue
            limit = want * (1 + TOLERANCE)
            if got > limit and got - want > 1:
                growth = f"+{(got - want) / want:.0%}" if want else "from 0"
                regressions.append(
                    f"{name}.{counter}: {got} > {want} "
                    f"({growth}, limit +{TOLERANCE:.0%})"
                )
            elif want and got < want * (1 - TOLERANCE):
                improvements.append(
                    f"{name}.{counter}: {got} < {want} "
                    f"({(got - want) / want:.0%})"
                )
    return regressions, improvements


def print_report(report):
    for name, data in report["scenarios"].items():
        print(f"{name}  ({data['elapsed_s']:.3f}s)")
        for counter in GATED_COUNTERS:
            if counter in data["counters"]:
                print(f"  {counter:<24}{data['counters'][counter]:>12}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on >10%% work-counter regression vs baseline",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"refresh {BASELINE_PATH.name} from this run",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    report = run_scenarios()
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(f"\nwrote {args.output}")

    if args.write_baseline:
        baseline = {
            "schema": report["schema"],
            "scenarios": {
                name: {"counters": data["counters"]}
                for name, data in report["scenarios"].items()
            },
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    if args.check:
        reference = latest_reference(exclude=args.output)
        if reference is None:
            print("error: no benchmark baseline found "
                  f"(no BENCH_<n>.json or {BASELINE_PATH.name} in "
                  f"{BASELINE_PATH.parent}); run with --write-baseline "
                  "first", file=sys.stderr)
            return 2
        print(f"gating against {reference.name}")
        baseline = json.loads(reference.read_text())
        regressions, improvements = compare(report, baseline)
        for line in improvements:
            print(f"improved: {line} — consider --write-baseline")
        if regressions:
            print("\nwork-counter regressions beyond "
                  f"{TOLERANCE:.0%}:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"gate passed: no gated counter regressed beyond "
              f"{TOLERANCE:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
