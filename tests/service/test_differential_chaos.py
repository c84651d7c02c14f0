"""The tentpole acceptance test: a chaos-injected service converges.

The same deterministic keyed workload runs twice — once against a
quiet server, once against a server injecting wire teardowns, torn
writes, delays, and session kills — and must land in *identical* final
state: same working memory including time tags, same committed-firing
signature sequence in the WAL, zero duplicate firings.  That is the
exactly-once contract end to end: idempotency keys + WAL-backed
request journal + transactional ingest + resume-on-kill.
"""

from __future__ import annotations

from repro.durability.wal import read_log_tail
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)

PROGRAM = """
(literalize dept name)
(literalize emp name dept salary)
(literalize seen name)
(p note-emp
  (emp ^name <n> ^salary {<s> > 1500})
  -(seen ^name <n>)
  -->
  (make seen ^name <n>))
(p dept-size
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -->
  (write staffed <d> (count <staff>)))
"""

TICKS = 8
FACTS_PER_TICK = 4
N_DEPTS = 3

#: Per-line chaos rates: roughly every fourth response is torn down,
#: plus a ~6% chance each session op's target is killed outright.
CHAOS = ("disconnect=0.04,partial=0.03,delay=0.08,delay_s=0.002,"
         "kill=0.06,seed=17")


def _facts_for_tick(tick):
    base = tick * FACTS_PER_TICK
    return [
        ("emp", {
            "name": f"e{base + i}",
            "dept": f"d{(base + i) % N_DEPTS}",
            "salary": 1000 + ((base + i) % 2000),
        })
        for i in range(FACTS_PER_TICK)
    ]


def _drive(address, sid, *, seed):
    """The deterministic keyed workload; returns (facts, fired_total).

    Every mutating request carries a deterministic idempotency key, so
    a retry after any injected fault applies exactly once; a killed
    session is resumed from its WAL and the op retried under the same
    key.
    """
    with ServiceClient(
        *address, seed=seed, max_retries=300, retry_budget_s=120.0,
        backoff_base=0.005,
    ) as client:
        def call(fn):
            for _attempt in range(10):
                try:
                    return fn()
                except ServiceClientError as error:
                    if error.code != "no_session":
                        raise
                    client.create(
                        sid, "", resume=True, retry=True,
                        idempotent=True,
                    )
            raise AssertionError("session never recovered")

        client.create(
            sid, PROGRAM, durable=True, retry=True,
            key=f"{sid}-create",
        )
        call(lambda: client.assert_facts(
            sid, [("dept", {"name": f"d{d}"}) for d in range(N_DEPTS)],
            retry=True, key=f"{sid}-depts",
        ))
        fired_total = 0
        for tick in range(TICKS):
            call(lambda: client.assert_facts(
                sid, _facts_for_tick(tick), retry=True,
                key=f"{sid}-a{tick}",
            ))
            response, _events = call(lambda: client.run(
                sid, retry=True, key=f"{sid}-r{tick}",
            ))
            assert response["halted"] is False
            fired_total += response["fired"]
        _, events = call(lambda: client.facts(sid, retry=True))
        facts = sorted(
            (e["class"], e["tag"], tuple(sorted(e["values"].items())))
            for e in events
        )
        stats = client.stats()
        return facts, fired_total, stats


def _committed_firings(wal_dir):
    """The committed-firing signature sequence of one session's WAL.

    ``f`` opens a firing bracket, ``e`` commits it, ``a`` rolls it
    back — exactly the semantics recovery replays.  Only committed
    brackets count; a signature is (rule, set flag, refraction stamp):
    a regular firing's CE-order time tags pin the precise WME
    combination, an SOI's ``[count, digest, head tags]`` its members.
    """
    payloads, _end, damage = read_log_tail(str(wal_dir))
    assert damage is None
    committed = []
    pending = None
    for record in payloads:
        kind = record.get("k")
        if kind == "f":
            assert pending is None, "firing brackets never nest"
            stamp = record["t"]
            if record["s"]:
                count, digest, head = stamp
                stamp = (count, digest, tuple(head))
            pending = (record["r"], record["s"], tuple(stamp))
        elif kind == "e":
            assert pending is not None
            committed.append(pending)
            pending = None
        elif kind == "a":
            pending = None
    assert pending is None, "WAL ends inside a firing bracket"
    return committed


def test_chaos_run_converges_to_the_fault_free_state(tmp_path):
    quiet_root = tmp_path / "quiet"
    chaos_root = tmp_path / "chaos"
    # The sweeper stays off so neither WAL is checkpoint-truncated and
    # the full firing history remains comparable.
    with ServiceThread(ServiceConfig(
        port=0, wal_root=str(quiet_root), engine_workers=2,
        sweep_interval=0.0,
    )) as quiet:
        quiet_facts, quiet_fired, _ = _drive(
            quiet.address, "tenant", seed=1,
        )
    with ServiceThread(ServiceConfig(
        port=0, wal_root=str(chaos_root), engine_workers=2,
        sweep_interval=0.0, chaos=CHAOS,
    )) as chaotic:
        chaos_facts, chaos_fired, stats = _drive(
            chaotic.address, "tenant", seed=1,
        )

    # The chaos layer actually did something.
    injected = stats["chaos"]["injected"]
    assert sum(injected.values()) > 0

    # Identical final working memory, including time tags: no lost
    # batch, no double-applied batch, no tag burned by a retry.
    assert chaos_facts == quiet_facts
    assert chaos_fired == quiet_fired

    # Identical committed-firing sequences, and no duplicates: every
    # logical firing happened exactly once on both sides.
    quiet_firings = _committed_firings(quiet_root / "tenant")
    chaos_firings = _committed_firings(chaos_root / "tenant")
    assert chaos_firings == quiet_firings
    assert len(set(chaos_firings)) == len(chaos_firings)
    assert len(quiet_firings) == quiet_fired
