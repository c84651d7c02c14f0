"""Durability overhead and recovery-time characteristics (PR 3).

Two claims are measured:

* **fsync-policy overhead** — appending the same workload under
  ``off`` / ``batch`` / ``always`` shows the durability/throughput
  trade: ``batch`` pays one fsync per commit unit (a delta-batch, or a
  whole ``run()`` of N firings — group commit), ``always`` one per
  record, ``off`` none.  The WAL byte volume is identical across
  policies (the policy changes *when* data reaches stable storage, not
  what is written).

* **recovery time scales with WAL tail length** — recovery replays the
  tail past the last checkpoint; a checkpoint truncates the tail, so
  recovery after a checkpoint is (nearly) flat regardless of history
  length.  Measured: full-log replay vs checkpoint + empty tail, at
  growing workload sizes.

* **recovery is bounded** — a durable session checkpoints itself, so
  the log a recovery replays stays under one bound however long the
  session has run: a sliding-window program run for N and 4N ticks
  replays no more records, and keeps no more log bytes past its last
  checkpoint, at 4N than the bound allows at N.
"""

import itertools
import time

import pytest

from repro import DurabilityConfig, MatchStats, RuleEngine
from repro.bench import print_table

PROGRAM = """
(literalize reading sensor value)
(p spike (reading ^sensor <s> ^value 99) --> (write spike <s>))
"""

BATCH = 50

#: One firing per reading, each logging ``f``, a ``d`` and ``e``.
RUN_PROGRAM = """
(literalize reading sensor value)
(literalize seen sensor value)
(p note (reading ^sensor <s> ^value <v>) -(seen ^sensor <s> ^value <v>)
  --> (make seen ^sensor <s> ^value <v>))
"""
RUN_FIRINGS = 200


def _workload(wal_dir, n, fsync="off"):
    stats = MatchStats()
    engine = RuleEngine(
        durability=DurabilityConfig(wal_dir, fsync=fsync), stats=stats
    )
    engine.load(PROGRAM)
    start = time.perf_counter()
    for base in range(0, n, BATCH):
        with engine.batch():
            for i in range(base, min(base + BATCH, n)):
                engine.make(
                    "reading", sensor=f"s{i % 7}", value=i % 100
                )
    elapsed = time.perf_counter() - start
    return engine, stats, elapsed


def _recover_time(wal_dir):
    start = time.perf_counter()
    engine = RuleEngine.recover(wal_dir, durability=False)
    return engine, time.perf_counter() - start


def test_fsync_policy_overhead(tmp_path, benchmark):
    rows = []
    measured = {}
    for policy in ("off", "batch", "always"):
        engine, stats, elapsed = _workload(
            tmp_path / policy, 2000, fsync=policy
        )
        engine.close()
        counters = stats.counters
        measured[policy] = counters
        rows.append((
            policy,
            counters["wal_appends"],
            counters["wal_bytes"],
            counters.get("wal_fsyncs", 0),
            f"{elapsed:.3f}",
        ))
    print()
    print_table(
        "fsync policy overhead (2000 makes in batches of 50)",
        ["policy", "appends", "bytes", "fsyncs", "load time (s)"],
        rows,
    )
    # Identical log content; only the fsync count differs.
    assert (
        measured["off"]["wal_bytes"]
        == measured["batch"]["wal_bytes"]
        == measured["always"]["wal_bytes"]
    )
    assert measured["off"].get("wal_fsyncs", 0) == 0
    # batch: one fsync per delta-batch (+ meta/close syncs are absent
    # here because only batch records trigger the policy, plus close).
    assert measured["batch"]["wal_fsyncs"] >= 2000 // BATCH
    assert (
        measured["always"]["wal_fsyncs"]
        > measured["batch"]["wal_fsyncs"]
    )

    # Each round needs its own directory: a fresh engine refuses a
    # WAL directory already holding a previous session's records.
    rounds = itertools.count()
    benchmark(
        lambda: _workload(tmp_path / f"bench-{next(rounds)}", 500, "off")
    )


def test_run_is_one_commit_unit(tmp_path):
    rows = []
    measured = {}
    for policy in ("off", "batch", "always"):
        stats = MatchStats()
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path / policy, fsync=policy),
            stats=stats,
        )
        engine.load(RUN_PROGRAM)
        with engine.batch():
            for i in range(RUN_FIRINGS):
                engine.make("reading", sensor=f"s{i % 7}", value=i)
        before = dict(stats.counters)
        start = time.perf_counter()
        assert engine.run() == RUN_FIRINGS
        elapsed = time.perf_counter() - start
        measured[policy] = {
            name: stats.counters.get(name, 0) - before.get(name, 0)
            for name in ("wal_appends", "wal_bytes", "wal_fsyncs")
        }
        engine.close()
        rows.append((policy, *measured[policy].values(), f"{elapsed:.3f}"))
    print()
    print_table(
        f"one run() of {RUN_FIRINGS} firings",
        ["policy", "appends", "bytes", "fsyncs", "run time (s)"],
        rows,
    )
    assert (
        measured["off"]["wal_bytes"]
        == measured["batch"]["wal_bytes"]
        == measured["always"]["wal_bytes"]
    )
    assert measured["off"]["wal_fsyncs"] == 0
    assert measured["batch"]["wal_fsyncs"] == 1
    assert measured["always"]["wal_fsyncs"] == (
        measured["always"]["wal_appends"]
    ) == 3 * RUN_FIRINGS


TALLY_PROGRAM = """
(literalize item n)
(p tally { [item] <S> } --> (write items (count <S>)))
"""


def test_soi_stamp_bytes_do_not_grow_with_the_set(tmp_path):
    from repro.durability.wal import encode_record, read_log_tail

    rows = []
    sizes = {}
    for n in (100, 2000):
        wal_dir = tmp_path / f"tally-{n}"
        engine = RuleEngine(
            durability=DurabilityConfig(wal_dir, fsync="off")
        )
        engine.load(TALLY_PROGRAM)
        with engine.batch():
            for i in range(n):
                engine.make("item", n=i)
        assert engine.run() == 1
        engine.close()
        payloads, _, _ = read_log_tail(str(wal_dir))
        (stamp,) = [p for p in payloads if p["k"] == "f"]
        assert stamp["t"][0] == n
        sizes[n] = len(encode_record(stamp))
        rows.append((n, sizes[n]))
    print()
    print_table("SOI refraction stamp", ["members", "f frame (B)"], rows)
    assert max(sizes.values()) < 200
    # Only the numbers' decimal widths may differ: one digit each for
    # the count and the head tag, two for the 64-bit digest.
    assert abs(sizes[2000] - sizes[100]) <= 4


def test_recovery_time_tracks_wal_tail_length(tmp_path, benchmark):
    sizes = (500, 2000, 8000)
    rows = []
    replay_counts = []
    for n in sizes:
        wal_dir = tmp_path / f"tail-{n}"
        engine, _, _ = _workload(wal_dir, n)
        engine.close()
        recovered, full_tail = _recover_time(wal_dir)
        assert len(recovered.wm) == n
        full_replayed = recovered.recovery_report.replayed_deltas
        replay_counts.append(full_replayed)

        ckpt_dir = tmp_path / f"ckpt-{n}"
        engine, _, _ = _workload(ckpt_dir, n)
        engine.checkpoint()
        engine.close()
        recovered, after_ckpt = _recover_time(ckpt_dir)
        assert len(recovered.wm) == n
        assert recovered.recovery_report.replayed_deltas == 0

        rows.append((
            n, full_replayed, f"{full_tail:.3f}", f"{after_ckpt:.3f}",
        ))
    print()
    print_table(
        "recovery time vs WAL tail length",
        ["WMEs", "tail deltas replayed", "full-replay (s)",
         "post-checkpoint (s)"],
        rows,
    )
    # The replayed-tail volume grows linearly with history; the
    # checkpoint resets it to zero (the timing columns are for the
    # table, the structural claim is what we gate on).
    assert replay_counts == list(sizes)

    benchmark(_recover_time, tmp_path / "tail-500")


@pytest.mark.parametrize("matcher", ["rete", "naive", "dips"])
def test_recovery_is_matcher_faithful_at_scale(tmp_path, matcher):
    from repro.match import build_matcher

    engine = RuleEngine(
        matcher=build_matcher(matcher),
        durability=DurabilityConfig(tmp_path / matcher, fsync="off"),
    )
    engine.load(PROGRAM)
    with engine.batch():
        for i in range(1000):
            engine.make("reading", sensor=f"s{i % 7}", value=i % 100)
    recovered = RuleEngine.recover(tmp_path / matcher, durability=False)
    assert type(recovered.matcher) is type(engine.matcher)
    assert len(recovered.wm) == len(engine.wm)
    assert recovered.conflict_set_size() == engine.conflict_set_size()


#: A sliding window, as the served benchmark runs it: a per-department
#: roll-up through an S-node, a tuple rule with a negated CE, and
#: expiry by ``set-remove``, so working memory holds the last
#: WINDOW_TICKS ticks and no more.
WINDOW = """
(literalize dept name)
(literalize emp name dept salary tick)
(literalize seen name tick)
(literalize expire before)
(p rollup
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -->
  (write rollup <d> (count <staff>) (avg <staff> ^salary)))
(p note-emp
  (emp ^name <n> ^salary > 1500 ^tick <t>)
  -(seen ^name <n>)
  -->
  (make seen ^name <n> ^tick <t>))
(p expire-emps
  (expire ^before <k>)
  { [emp ^tick < <k>] <old> }
  -->
  (set-remove <old>))
(p expire-seen
  (expire ^before <k>)
  { [seen ^tick < <k>] <old> }
  -->
  (set-remove <old>))
(p expire-done
  { (expire) <marker> }
  -->
  (remove <marker>))
"""
WINDOW_TICKS = 50
WINDOW_FACTS = 20

#: Records a recovery may replay, whatever the session's age.  A tick
#: logs about 50 records in 5.7 KB, so the log between checkpoints
#: (FLOOR = 128 KiB; twice this window's ≈ 46 KB checkpoint is less)
#: holds ≈ 1 150 records; without self-checkpoints 80 ticks alone
#: replay ≈ 4 000.
REPLAY_BOUND = 2000


def _window_ticks(ticks):
    for tick in range(1, ticks + 1):
        batch = [
            ("emp", {"name": f"e{tick}-{i}", "dept": f"d{i % 8}",
                     "salary": 1000 + (tick * 37 + i * 101) % 1000,
                     "tick": tick})
            for i in range(WINDOW_FACTS)
        ]
        if tick > WINDOW_TICKS:
            batch.append(("expire", {"before": tick - WINDOW_TICKS}))
        yield batch


def test_recovery_does_not_grow_with_uptime(tmp_path):
    from repro.durability import manager

    rows = []
    for ticks in (80, 320):
        wal_dir = tmp_path / f"window-{ticks}"
        engine = RuleEngine(durability=DurabilityConfig(wal_dir))
        engine.load(WINDOW)
        engine.load_facts([("dept", {"name": f"d{i}"}) for i in range(8)])
        durability = engine.durability
        tick_bytes = 0
        for batch in _window_ticks(ticks):
            before = durability.wal.bytes
            engine.load_facts(batch)
            engine.run()
            tick_bytes = max(tick_bytes, durability.wal.bytes - before)
        since = durability.wal_bytes_since_checkpoint
        bound = max(manager.FLOOR,
                    manager.MULTIPLE * durability.checkpoint_bytes)
        checkpoints = durability.checkpoints
        engine.close()
        start = time.perf_counter()
        recovered = RuleEngine.recover(wal_dir, durability=False)
        elapsed = time.perf_counter() - start
        replayed = recovered.recovery_report.replayed_records
        rows.append((ticks, checkpoints, since, replayed,
                     f"{elapsed * 1000:.0f}"))
        assert since <= bound + tick_bytes
        assert replayed <= REPLAY_BOUND
        assert len(recovered.wm) == len(engine.wm)
    print()
    print_table(
        "self-checkpointing WINDOW: what recovery replays",
        ["ticks", "checkpoints", "log bytes past it", "records replayed",
         "recovery (ms)"],
        rows,
    )
    assert rows[1][1] > rows[0][1]
