"""The service front end over a live socket: ops, errors, backpressure,
session lifecycle driven end to end through :class:`ServiceClient`."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.durability import FaultInjector, manager
from repro.errors import ServiceError
from repro.service import (
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)
from repro.service.protocol import encode_line

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
        assert response["protocol"] == 1

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
        # Event lines leave the server in groups of 128; a response of
        # several groups and a remainder must read as one stream.
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
        stats = client.stats()
        assert stats["server"]["connections"] >= 1
        assert stats["registry"]["sessions"] >= 1
        assert stats["rule_bases"]["rule_bases"] >= 1
        assert any(s["session"] == sid for s in stats["sessions"])
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
