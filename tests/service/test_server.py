"""The service front end over a live socket: ops, errors, backpressure,
session lifecycle driven end to end through :class:`ServiceClient`."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import RuleEngine
from repro.durability import FaultInjector, manager
from repro.errors import ServiceError
from repro.service import (
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ROWS_PER_LINE,
    decode_line,
    encode_line,
    event_line,
    expand_batch,
    fact_event,
    firing_event,
)

PROGRAM = """
(literalize order id status)
(literalize shipped id)
(p ship-open
  (order ^id <i> ^status open)
  -(shipped ^id <i>)
  -->
  (make shipped ^id <i>)
  (write shipping <i>))
"""


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    wal_root = tmp_path_factory.mktemp("service-wal")
    with ServiceThread(ServiceConfig(
        port=0, wal_root=str(wal_root), engine_workers=2,
    )) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as connection:
        yield connection


def _unique(request):
    return request.node.name.replace("[", "-").replace("]", "")


class TestBasicOps:
    def test_ping(self, client):
        response = client.ping()
        assert response["pong"] is True
        assert response["protocol"] == 2

    def test_create_assert_run_round_trip(self, client, request):
        sid = _unique(request)
        created = client.create(sid, PROGRAM, durable=False)
        assert created["rules"] == 1
        client.assert_facts(sid, [
            ("order", {"id": 1, "status": "open"}),
            ("order", {"id": 2, "status": "held"}),
        ])
        response, events = client.run(sid)
        assert response["fired"] == 1
        assert response["stopped"] == "quiescent"
        kinds = [e["event"] for e in events]
        assert kinds.count("firing") == 1
        assert "write" in kinds
        facts = [e for e in events if e["event"] == "fact"]
        assert facts == [{
            "event": "fact", "id": response["id"], "sign": "+",
            "class": "shipped", "tag": 3, "values": {"id": 1},
        }]
        client.close_session(sid)

    def test_run_events_drain_between_requests(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        client.assert_facts(sid, [("order", {"id": 1, "status": "open"})])
        _, first = client.run(sid)
        _, second = client.run(sid)
        assert any(e["event"] == "firing" for e in first)
        # Quiescent re-run must not replay the old trace.
        assert second == []
        client.close_session(sid)

    def test_facts_dump(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        client.assert_facts(sid, [
            ("order", {"id": 1, "status": "open"}),
            ("order", {"id": 2, "status": "held"}),
        ])
        response, events = client.facts(sid, "order")
        assert response["count"] == 2
        assert {e["values"]["id"] for e in events} == {1, 2}
        client.close_session(sid)

    def test_long_responses_arrive_complete_and_in_order(
        self, client, request
    ):
        # Events leave the server as batch lines of ROWS_PER_LINE
        # rows; a response of several lines and a remainder must read
        # as one stream.
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        client.assert_facts(sid, [
            ("order", {"id": i, "status": "open"}) for i in range(150)
        ])
        response, events = client.run(sid)
        assert response["fired"] == 150
        assert [e["event"] for e in events] == (
            ["firing"] * 150 + ["write"] * 150 + ["fact"] * 150
        )
        # LEX fires the most recent order first; writes and derived
        # facts follow in firing order.
        shipped = [150 - e["cycle"] for e in events[:150]]
        assert shipped == list(range(149, -1, -1))
        assert [e["text"] for e in events[150:300]] == [
            f"shipping {i}" for i in shipped
        ]
        assert [e["values"]["id"] for e in events[300:]] == shipped
        assert [e["tag"] for e in events[300:]] == list(range(151, 301))
        response, events = client.facts(sid)
        assert response["count"] == len(events) == 300
        assert sorted(e["tag"] for e in events) == list(range(1, 301))
        assert [e["tag"] for e in events if e["class"] == "shipped"] == (
            list(range(151, 301))
        )
        client.close_session(sid)

    def test_stats_surface(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        before = [g["collections"] for g in gc.get_stats()]
        stats = client.stats()
        after = [g["collections"] for g in gc.get_stats()]
        assert stats["server"]["connections"] >= 1
        assert stats["registry"]["sessions"] >= 1
        assert stats["rule_bases"]["rule_bases"] >= 1
        assert any(s["session"] == sid for s in stats["sessions"])
        # The server runs in this process: its collector is this one.
        collections = stats["server"]["gc_collections"]
        assert len(collections) == len(before) == 3
        assert all(b <= n <= a for b, n, a in zip(before, collections, after))
        client.close_session(sid)

    def test_concurrent_asserts_leave_the_collector_on(
        self, server, request,
    ):
        """Two sessions' delta-sets flush on the executor's two threads
        at once, each pausing the process-wide collector; it is on
        again once both are done."""
        assert gc.isenabled()
        sids = [f"{_unique(request)}-{n}" for n in range(2)]
        errors = []

        def load(sid):
            try:
                with ServiceClient(*server.address) as own:
                    own.create(sid, PROGRAM, durable=False)
                    for batch in range(20):
                        own.assert_facts(sid, [
                            ("order", {"id": batch * 300 + i,
                                       "status": "open"})
                            for i in range(300)
                        ])
                    own.close_session(sid)
            except BaseException as error:  # reported below
                errors.append(error)

        threads = [threading.Thread(target=load, args=(sid,))
                   for sid in sids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert gc.isenabled()


#: Set-oriented and regular firings; derived facts of three shapes,
#: one widened by ``modify`` past the shape it was made with; float and
#: negative values; attributes left absent (``emp ^bonus`` until the
#: modify, ``dept ^floor`` always).
BATCH_PROGRAM = """
(literalize emp name dept salary bonus)
(literalize dept name floor)
(literalize stat dept n mean)
(p dept-stats
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -(stat ^dept <d>)
  -->
  (make stat ^dept <d> ^n (count <staff>) ^mean (avg <staff> ^salary))
  (write staffed <d> (count <staff>)))
(p bonus
  (emp ^name <n> ^salary <s> ^bonus nil)
  -->
  (modify 1 ^bonus (compute 0 - <s>))
  (write bonus for <n>))
"""

BATCH_TICKS = [
    [("dept", {"name": "d0"}), ("dept", {"name": "d1"}),
     ("emp", {"name": "zoë", "dept": "d0", "salary": 1200.5}),
     ("emp", {"name": "al", "dept": "d0", "salary": -3})],
    # 100 firings, 100 writes and 201 facts: two line boundaries.
    [("emp", {"name": f"e{i}", "dept": "d1", "salary": i})
     for i in range(100)],
]


def _embedded_runs(program, ticks):
    """An in-process engine fed *ticks* as the service is, with what
    each tick's run drained: ``(records, writes, derived events)``."""
    engine = RuleEngine()
    engine.load(program)
    runs = []
    for facts in ticks:
        engine.load_facts(facts)
        derived = []
        engine.wm.attach(derived.append)
        engine.run()
        engine.wm.detach(derived.append)
        runs.append((list(engine.tracer.firings),
                     list(engine.tracer.output), derived))
        engine.tracer.firings.clear()
        engine.tracer.output.clear()
    return engine, runs


def _v1_events(request_id, records, writes, derived):
    """The events of one ``run`` response as version 1 sent them."""
    return [
        *(firing_event(request_id, record) for record in records),
        *(event_line(request_id, "write", text=text) for text in writes),
        *(fact_event(request_id, event.sign, event.wme)
          for event in derived),
    ]


def _raw_response(connection, **request):
    """Send *request* on *connection*'s socket; every line of the
    response, as bytes, through the terminal one."""
    connection._sock.sendall(encode_line(request))
    lines = []
    while True:
        line = connection._reader.readline(MAX_LINE_BYTES + 1)
        assert line.endswith(b"\n")
        lines.append(line)
        if "ok" in decode_line(line):
            return lines


class TestBatchWire:
    """``run`` and ``facts`` answer in batch lines; the client expands
    them into exactly the events version 1 sent, in the same order."""

    def test_run_expands_to_the_v1_events(self, client, request):
        sid = _unique(request)
        engine, runs = _embedded_runs(BATCH_PROGRAM, BATCH_TICKS)
        client.create(sid, BATCH_PROGRAM, durable=False)
        for facts, drained in zip(BATCH_TICKS, runs):
            client.assert_facts(sid, facts)
            response, events = client.run(sid)
            assert events == _v1_events(response["id"], *drained)
        assert {record.is_set_oriented for records, _, _ in runs
                for record in records} == {True, False}
        assert any("zoë" in text for _, writes, _ in runs
                   for text in writes)
        response, events = client.facts(sid)
        assert events == [
            fact_event(response["id"], "+", wme) for wme in engine.wm
        ]
        response, events = client.facts(sid, "stat")
        assert response["count"] == 2
        assert events == [
            fact_event(response["id"], "+", wme)
            for wme in engine.wm.of_class("stat")
        ]
        client.close_session(sid)

    def test_batch_lines_on_the_wire(self, client, request):
        sid = _unique(request)
        _, [drained] = _embedded_runs(
            BATCH_PROGRAM, [BATCH_TICKS[0] + BATCH_TICKS[1]]
        )
        total = sum(map(len, drained))
        client.create(sid, BATCH_PROGRAM, durable=False)
        for facts in BATCH_TICKS:
            client.assert_facts(sid, facts)
        *batches, terminal = map(decode_line, _raw_response(
            client, op="run", id="r", session=sid,
        ))
        assert terminal["ok"] is True
        assert total > ROWS_PER_LINE
        kinds = ("firings", "writes", "facts")
        assert [sum(len(b.get(kind, ())) for kind in kinds)
                for b in batches] == [ROWS_PER_LINE, total - ROWS_PER_LINE]
        for batch in batches:
            assert batch["event"] == "batch" and batch["id"] == "r"
            # A line lists the shapes its facts use, and only those.
            used = sorted({row[1] for row in batch.get("facts", ())})
            assert used == list(range(len(batch.get("shapes", ()))))
        # One line ends the writes and begins the facts.
        assert "writes" in batches[0] and "facts" in batches[0]
        assert set(batches[1]) == {"event", "id", "shapes", "facts"}
        client.close_session(sid)

    def test_deduped_run_gets_its_terminal_line_only(self, client, request):
        sid = _unique(request)
        client.create(sid, BATCH_PROGRAM, durable=False)
        client.assert_facts(sid, BATCH_TICKS[0])
        first, events = client.run(sid, key="k1")
        assert events
        lines = _raw_response(client, op="run", id=9, session=sid,
                              key="k1")
        assert len(lines) == 1
        again = decode_line(lines[0])
        assert again["deduped"] is True
        assert again["fired"] == first["fired"]
        client.close_session(sid)

    def test_large_dump_is_complete_and_in_tag_order(self, client, request):
        sid = _unique(request)
        count = 2 * ROWS_PER_LINE + 7
        client.create(sid, PROGRAM, durable=False)
        client.assert_facts(sid, [
            ("order", {"id": i, "status": "held"}) for i in range(count)
        ])
        response, events = client.facts(sid)
        assert response["count"] == count
        assert [e["tag"] for e in events] == list(range(1, count + 1))
        assert [e["values"]["id"] for e in events] == list(range(count))
        client.close_session(sid)

    def test_long_symbols_split_a_line_below_the_cap(self, client, request):
        # 300 facts of 40 KB each: a full line would be ~10 MB.
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        for start in range(0, 300, 100):
            client.assert_facts(sid, [
                ("order", {"id": i, "status": f"s{i}-" + "x" * 40_000})
                for i in range(start, start + 100)
            ])
        lines = _raw_response(client, op="facts", id=1, session=sid)
        assert len(lines) > 3
        assert max(map(len, lines)) <= MAX_LINE_BYTES
        events = [event for line in lines[:-1]
                  for event in expand_batch(decode_line(line))]
        assert [e["values"]["id"] for e in events] == list(range(300))
        assert decode_line(lines[-1])["count"] == 300
        client.close_session(sid)


class TestErrors:
    def test_unknown_op(self, client):
        with pytest.raises(ServiceClientError) as info:
            client.request("frobnicate")
        assert info.value.code == "bad_request"

    def test_missing_session_field(self, client):
        with pytest.raises(ServiceClientError) as info:
            client.request("run")
        assert info.value.code == "bad_request"

    def test_no_such_session(self, client):
        with pytest.raises(ServiceClientError) as info:
            client.run("never-created")
        assert info.value.code == "no_session"

    def test_invalid_session_id(self, client):
        with pytest.raises(ServiceClientError) as info:
            client.create("../escape", PROGRAM)
        assert info.value.code == "bad_request"

    @pytest.mark.parametrize("field, value", [
        ("matcher", "bogus"),
        ("matcher", ["rete"]),
        ("strategy", "zzz"),
        ("strategy", ["lex"]),
        ("backend", "oracle"),
        ("backend", 7),
        # A file-backed sqlite would be one file shared by every session.
        pytest.param("backend", "sqlite:<tmp>/t.db",
                     id="backend-sqlite-path"),
        ("matcher", "sharded"),  # a matcher the registry no longer has
        ("matcher", "treat"),  # nor this one
    ])
    def test_unknown_engine_config_is_the_clients_mistake(
        self, server, client, request, tmp_path, field, value
    ):
        if isinstance(value, str):
            value = value.replace("<tmp>", str(tmp_path))
        # Past the breaker threshold (5): were these engine failures,
        # the id's breaker would be open by the final valid create.
        sid = "badcfg-" + request.node.callspec.id
        before = client.stats()
        for _ in range(10):
            with pytest.raises(ServiceClientError) as info:
                client.request("create", session=sid, program=PROGRAM,
                               durable=False, **{field: value})
            assert info.value.code == "bad_request"
            assert field in str(info.value)
        after = client.stats()
        assert after["server"].get("engine_errors", 0) == before[
            "server"
        ].get("engine_errors", 0)
        assert after["breakers"] == before["breakers"]
        assert sid not in server.service._breakers
        assert not (tmp_path / "t.db").exists()
        assert client.create(sid, PROGRAM, durable=False)["rules"] == 1
        client.close_session(sid)

    def test_config_refuses_a_file_backed_backend(self, tmp_path):
        path = tmp_path / "t.db"
        with pytest.raises(ServiceError, match="backend"):
            ServiceConfig(backend=f"sqlite:{path}")
        assert not path.exists()
        assert ServiceConfig(backend="sqlite").backend == "sqlite"
        assert ServiceConfig(backend="memory").backend == "memory"

    def test_rete_tenants_differing_only_in_backend_share_one_compile(
        self, client, request
    ):
        sid = _unique(request)
        program = PROGRAM + "; backend-normalisation probe\n"
        before = client.stats()["rule_bases"]["compiles"]
        client.create(sid + "-a", program, durable=False, matcher="rete",
                      backend="sqlite")
        second = client.create(sid + "-b", program, durable=False,
                               matcher="rete")
        assert second["rulebase_hit"] is True
        assert client.stats()["rule_bases"]["compiles"] == before + 1
        client.close_session(sid + "-a")
        client.close_session(sid + "-b")

    def test_duplicate_session(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as info:
            client.create(sid, PROGRAM)
        assert info.value.code == "bad_request"
        client.close_session(sid)

    def test_parse_error_maps_to_engine_code(self, client, request):
        sid = _unique(request)
        with pytest.raises(ServiceClientError) as info:
            client.create(sid, "(p broken")
        assert info.value.code == "engine"
        # The connection survives a failed request.
        assert client.ping()["pong"] is True

    def test_bad_fact_shape(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as info:
            client.request("assert", session=sid, facts=["not-a-pair"])
        assert info.value.code == "bad_request"
        client.close_session(sid)

    def test_checkpoint_needs_durability(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as info:
            client.checkpoint(sid)
        assert info.value.code == "bad_request"
        client.close_session(sid)

    def test_malformed_line_is_protocol_error(self, server):
        with ServiceClient(*server.address) as raw:
            raw._sock.sendall(b"this is not json\n")
            response = raw._read_line()
            assert response["ok"] is False
            assert response["error"] == "protocol"
            # Framing is intact: the next request still works.
            assert raw.ping()["pong"] is True

    def test_non_object_payload_is_protocol_error(self, server):
        with ServiceClient(*server.address) as raw:
            raw._sock.sendall(encode_line([1, 2, 3]))
            response = raw._read_line()
            assert response["error"] == "protocol"

    def test_close_of_unknown_session_keeps_no_lock(self, server, client):
        with pytest.raises(ServiceClientError) as info:
            client.close_session("never-created")
        assert info.value.code == "no_session"
        assert "never-created" not in server.service._session_locks

    def test_underscore_keys_are_not_the_clients(self, client, request):
        # The server keeps its own per-request state under leading
        # underscores; a client's such keys are dropped, not trusted.
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        client._sock.sendall(
            encode_line({"op": "ping", "id": 1, "_responded": 1})
            + encode_line({"op": "facts", "id": 2, "session": sid,
                           "_deadline": 0})
        )
        assert client._read_line()["pong"] is True
        assert client._read_line()["ok"] is True
        assert client.ping()["pong"] is True
        client.close_session(sid)


class TestDurableSessions:
    def test_checkpoint_and_wire_resume(self, server, request):
        sid = _unique(request)
        with ServiceClient(*server.address) as client:
            client.create(sid, PROGRAM)
            client.assert_facts(
                sid, [("order", {"id": 1, "status": "open"})]
            )
            response, _ = client.run(sid)
            assert response["fired"] == 1
            assert client.checkpoint(sid)["path"]
            client.close_session(sid)

        # A new connection resumes the evicted/closed session by id.
        with ServiceClient(*server.address) as client:
            resumed = client.create(sid, "", resume=True)
            assert resumed["resumed"] is True
            assert resumed["wm_size"] == 2  # order + shipped
            # Both came from the checkpoint; no record followed it.
            assert resumed["restored"] == 2
            assert resumed["replayed"] == 0
            response, _ = client.run(sid)
            assert response["fired"] == 0  # refraction survived
            client.close_session(sid)

    def test_fresh_create_on_used_dir_names_session(self, server, request):
        sid = _unique(request)
        with ServiceClient(*server.address) as client:
            client.create(sid, PROGRAM)
            client.assert_facts(
                sid, [("order", {"id": 1, "status": "open"})]
            )
            client.close_session(sid)
            with pytest.raises(ServiceClientError) as info:
                client.create(sid, PROGRAM)
            assert info.value.code == "engine"
            assert sid in str(info.value)

    @pytest.mark.parametrize("policy, fsyncs", [
        ("batch", 1), ("always", 4), ("off", 0),
    ])
    def test_durable_create_is_synced_before_its_ok(
        self, tmp_path, policy, fsyncs
    ):
        # A fresh create logs four frames (meta, two literalizes, the
        # rule).  Under batch they are one commit unit, synced once
        # before the response; always syncs each frame, off none.
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path), fsync=policy,
            engine_workers=1,
        )) as thread:
            with ServiceClient(*thread.address) as client:
                client.create("synced", PROGRAM)
                [session] = client.stats()["sessions"]
        assert session["wal_records"] == 4
        assert session["wal_fsyncs"] == fsyncs
        assert session["wal_bytes_since_checkpoint"] > 0
        assert session["checkpoints"] == 0

    def test_fresh_create_reports_no_recovery(self, server, request):
        sid = _unique(request)
        with ServiceClient(*server.address) as client:
            created = client.create(sid, PROGRAM)
            assert "restored" not in created and "replayed" not in created
            client.close_session(sid)


def _serve_process(wal_root):
    """``repro.cli serve`` in a child process; ``.address`` is set."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--wal-root", str(wal_root), "--engine-workers", "1"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    line = process.stdout.readline().decode()
    if "listening on" not in line:
        process.kill()
        pytest.fail(f"server did not start: {line!r}")
    host, port = line.split("listening on ")[1].split()[0].split(":")
    process.address = (host, int(port))
    return process


def _orders(first, count):
    return [("order", {"id": i, "status": "open"})
            for i in range(first, first + count)]


class TestSelfCheckpoint:
    """A request that leaves a durable session's log past its bound is
    answered first; the checkpoint follows under the session lock,
    before that session's next request."""

    @pytest.fixture
    def bound(self, monkeypatch):
        monkeypatch.setattr(manager, "FLOOR", 2048)
        monkeypatch.setattr(manager, "MULTIPLE", 2)

    def _session(self, stats, sid):
        [info] = [s for s in stats["sessions"] if s["session"] == sid]
        return info

    def test_checkpoint_follows_the_response(self, bound, tmp_path):
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path), engine_workers=1,
        )) as srv:
            with ServiceClient(*srv.address) as client:
                client.create("t1", PROGRAM)
                client.assert_facts("t1", _orders(0, 5))
                assert self._session(client.stats(), "t1")[
                    "checkpoints"] == 0
                response, _ = client.run("t1")
                assert response["fired"] == 5
                client.assert_facts("t1", _orders(100, 40))
                # Queued behind the deferred checkpoint on the lock.
                client.facts("t1")
                stats = client.stats()
                info = self._session(stats, "t1")
                assert info["checkpoints"] == 1
                assert info["wal_bytes_since_checkpoint"] == 0
                assert stats["server"]["self_checkpoints"] == 1
                assert stats["registry"]["checkpoint_failures"] == 0
                wm_size = info["wm_size"]
                client.close_session("t1")
                resumed = client.create("t1", "", resume=True)
                assert resumed["restored"] == wm_size
                assert resumed["replayed"] == 0

    def test_sigkill_after_a_deferred_checkpoint(self, tmp_path):
        # A real server process at the real bound: one request's log
        # passes it, the checkpoint is deferred past the response, a
        # short tail follows, and SIGKILL ends the process.
        wal_root = tmp_path / "wal"
        server = _serve_process(wal_root)
        try:
            with ServiceClient(*server.address) as client:
                client.create("k1", PROGRAM)
                batch = manager.FLOOR // 80
                client.assert_facts("k1", _orders(0, batch))
                response, _ = client.run("k1")
                assert response["fired"] == batch
                client.facts("k1")  # after the deferred checkpoint
                [info] = client.stats()["sessions"]
                assert info["checkpoints"] >= 1
                assert info["wal_bytes_since_checkpoint"] == 0
                client.assert_facts("k1", _orders(batch, 3))
                response, _ = client.run("k1")
                assert response["fired"] == 3
                _, before = client.facts("k1")
        finally:
            server.kill()
            server.wait()
        server = _serve_process(wal_root)
        try:
            with ServiceClient(*server.address) as client:
                resumed = client.create("k1", "", resume=True)
                assert resumed["restored"] == 2 * batch
                assert 0 < resumed["replayed"] < 20
                _, after = client.facts("k1")
        finally:
            server.kill()
            server.wait()
        def dump(events):
            return [(e["class"], e["tag"], e["values"]) for e in events]

        assert dump(after) == dump(before)
        assert len(before) == 2 * batch + 6

    def test_pipelined_close_waits_for_the_deferred_checkpoint(
            self, bound, tmp_path):
        # The assert crosses the bound and the close follows on the
        # same connection before its answer is read; with several
        # engine workers the close must still queue behind the
        # checkpoint rather than run beside it.
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path), engine_workers=4,
        )) as srv:
            with ServiceClient(*srv.address) as client:
                client.create("t1", PROGRAM)
                client._sock.sendall(
                    encode_line({"op": "assert", "id": 1, "session": "t1",
                                 "facts": [[c, v] for c, v
                                           in _orders(0, 60)]})
                    + encode_line({"op": "close", "id": 2,
                                   "session": "t1", "checkpoint": True})
                )
                assert client._read_line()["ingested"] == 60
                assert client._read_line()["closed"] == "t1"
                stats = client.stats()
                assert stats["registry"]["checkpoint_failures"] == 0
                assert stats["server"]["self_checkpoints"] == 1
                resumed = client.create("t1", "", resume=True)
                assert resumed["restored"] == 60
                assert resumed["replayed"] == 0

    def test_failed_checkpoints_are_counted_not_answered(
            self, bound, tmp_path):
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path), engine_workers=1,
        )) as srv:
            srv.service.registry.fault_factory = (
                lambda session_id: FaultInjector(
                    error_at={"checkpoint.begin": 1}
                )
            )
            with ServiceClient(*srv.address) as client:
                client.create("t1", PROGRAM)
                client.assert_facts("t1", _orders(0, 60))
                # The deferred checkpoint failed; the next request is
                # still served and retries it, this time successfully.
                response, _ = client.run("t1")
                assert response["fired"] == 60
                client.facts("t1")
                stats = client.stats()
                assert stats["registry"]["checkpoint_failures"] == 1
                assert self._session(stats, "t1")["checkpoints"] == 1

                # A failed close checkpoint is counted too; the close
                # goes ahead.
                client.create("t2", PROGRAM)
                client.close_session("t2", checkpoint=True)
                assert client.stats()["registry"][
                    "checkpoint_failures"] == 2

                # So is a failed drain checkpoint.
                client.create("t3", PROGRAM)
            srv.drain()
            assert srv.service.registry.checkpoint_failures == 3


class TestBackpressure:
    def test_global_queue_full_rejects_with_retry_after(self):
        with ServiceThread(ServiceConfig(port=0, global_queue=0)) as srv:
            with ServiceClient(*srv.address) as client:
                with pytest.raises(ServiceBusyError) as info:
                    client.create("t1", PROGRAM, durable=False)
                assert info.value.retry_after > 0
                assert info.value.code == "busy"

    def test_session_queue_full_rejects(self):
        with ServiceThread(ServiceConfig(port=0, session_queue=0)) as srv:
            with ServiceClient(*srv.address) as client:
                client.create("t1", PROGRAM, durable=False)
                with pytest.raises(ServiceBusyError):
                    client.run("t1")

    def test_client_retry_honours_backoff(self):
        with ServiceThread(ServiceConfig(port=0, global_queue=0)) as srv:
            with ServiceClient(*srv.address) as client:
                with pytest.raises(ServiceBusyError):
                    client.create("t1", PROGRAM, durable=False,
                                  retry=True)
                assert client.busy_retries == 50
                assert client.backoff_s > 0


class TestIdleEviction:
    def test_idle_session_swept_and_resumable(self, tmp_path):
        config = ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"),
            idle_ttl=0.2, sweep_interval=0.05,
        )
        with ServiceThread(config) as srv:
            with ServiceClient(*srv.address) as client:
                client.create("t1", PROGRAM)
                client.assert_facts(
                    "t1", [("order", {"id": 1, "status": "open"})]
                )
                # Poll the (session-agnostic) stats surface: a facts
                # request would touch the session and reset its idle
                # clock — the sweep only takes truly idle tenants.
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    time.sleep(0.1)
                    if client.stats()["registry"]["evicted_idle"]:
                        break
                else:
                    pytest.fail("idle session was never evicted")
                with pytest.raises(ServiceClientError) as info:
                    client.request("facts", session="t1")
                assert info.value.code == "no_session"
                resumed = client.create("t1", "", resume=True)
                assert resumed["resumed"] is True
                assert resumed["wm_size"] == 1


SPIN_PROGRAM = """
(literalize counter n)
(p spin (counter ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
"""


class TestLoopResponsiveness:
    """Encoding a large response on the event loop must not stall the
    other tenants: the loop runs between a response's writes."""

    BOUND_S = 0.5

    def _worst_latency(self, address, busy):
        """Ping and assert to session B while *busy* runs on a thread;
        the slowest answer, in seconds."""
        errors = []

        def run():
            try:
                busy()
            except Exception as error:  # surfaced below
                errors.append(error)

        worker = threading.Thread(target=run)
        worst = 0.0
        samples = 0
        with ServiceClient(*address) as other:
            other.create("B", PROGRAM, durable=False)
            worker.start()
            while worker.is_alive() or samples < 3:
                started = time.perf_counter()
                other.ping()
                other.assert_facts(
                    "B", [("order", {"id": samples, "status": "held"})]
                )
                worst = max(worst, time.perf_counter() - started)
                samples += 1
            worker.join()
            other.close_session("B")
        assert errors == []
        return worst

    def test_a_large_dump_does_not_stall_the_loop(self):
        with ServiceThread(ServiceConfig(port=0)) as srv:
            with ServiceClient(*srv.address) as a:
                a.create("A", PROGRAM, durable=False)
                a.assert_facts("A", [
                    ("order", {"id": i, "status": "held"})
                    for i in range(20_000)
                ])

                def dump():
                    for _ in range(3):
                        response, events = a.facts("A")
                        assert response["count"] == len(events) == 20_000

                assert self._worst_latency(srv.address, dump) < (
                    self.BOUND_S
                )

    def test_a_spinning_run_does_not_stall_the_loop(self):
        config = ServiceConfig(port=0, run_wall_clock=2.0,
                               run_limit=10_000_000)
        with ServiceThread(config) as srv:
            with ServiceClient(*srv.address) as a:
                a.create("A", SPIN_PROGRAM, durable=False)
                a.assert_facts("A", [("counter", {"n": 0})])
                outcome = {}

                def spin():
                    outcome["response"], outcome["events"] = a.run("A")

                assert self._worst_latency(srv.address, spin) < (
                    self.BOUND_S
                )
                response = outcome["response"]
                assert response["stopped"] == "wall_clock"
                assert len(outcome["events"]) == 3 * response["fired"]


class TestConcurrentTenants:
    def test_interleaved_sessions_do_not_cross(self, server):
        import threading

        errors = []

        def tenant(index):
            try:
                sid = f"tenant-{index}"
                with ServiceClient(*server.address) as client:
                    client.create(sid, PROGRAM, durable=False,
                                  retry=True)
                    for batch in range(3):
                        client.assert_facts(sid, [
                            ("order", {
                                "id": index * 100 + batch,
                                "status": "open",
                            }),
                        ], retry=True)
                        response, events = client.run(sid, retry=True)
                        assert response["fired"] == 1
                        (firing,) = [
                            e for e in events if e["event"] == "fact"
                        ]
                        assert firing["values"]["id"] == (
                            index * 100 + batch
                        )
                    client.close_session(sid, retry=True)
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=tenant, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
