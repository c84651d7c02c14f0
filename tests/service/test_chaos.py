"""The chaos layer: config parsing, deterministic injection, and a
live server surviving wire/lifecycle faults with exactly-once retries."""

from __future__ import annotations

import asyncio
import errno
from itertools import accumulate

import pytest

from repro.durability import manager
from repro.durability.faultfs import FaultInjector
from repro.errors import ServiceError
from repro.service import (
    ChaosConfig,
    ChaosInjector,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)
from repro.service.protocol import encode_line
from repro.service.server import _WRITE_BYTES, RuleService

PROGRAM = """
(literalize order id status)
(literalize shipped id)
(p ship-open
  (order ^id <i> ^status open)
  -(shipped ^id <i>)
  -->
  (make shipped ^id <i>))
"""


class TestChaosConfig:
    def test_parse_round_trip(self):
        config = ChaosConfig.parse(
            "disconnect=0.25, delay=0.5, delay_s=0.01, seed=9"
        )
        assert config.disconnect == 0.25
        assert config.delay == 0.5
        assert config.delay_s == 0.01
        assert config.seed == 9
        assert config.partial == config.kill == 0.0
        assert config.enabled

    def test_parse_passthrough_and_describe(self):
        config = ChaosConfig(kill=0.1, seed=3)
        assert ChaosConfig.parse(config) is config
        described = config.describe()
        assert described["kill"] == 0.1
        assert described["seed"] == 3
        assert "kill=0.1" in repr(config)

    def test_quiet_config_is_disabled(self):
        assert not ChaosConfig().enabled
        assert not ChaosConfig(delay_s=5.0).enabled

    @pytest.mark.parametrize("spec", [
        "frobnicate=1",          # unknown key
        "disconnect",            # no value
        "disconnect=lots",       # malformed value
        "disconnect=1.5",        # out of range
        "kill=-0.1",             # out of range
    ])
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(ServiceError):
            ChaosConfig.parse(spec)


class TestChaosInjector:
    def test_same_seed_same_faults(self):
        make = lambda: ChaosInjector(ChaosConfig(
            disconnect=0.2, partial=0.2, delay=0.2, seed=42,
        ))
        a, b = make(), make()
        rolls = [(a.wire_fault(), b.wire_fault()) for _ in range(300)]
        assert all(x == y for x, y in rolls)
        assert a.counters == b.counters
        assert sum(a.counters.values()) > 0

    def test_wire_faults_are_counted(self):
        injector = ChaosInjector(ChaosConfig(disconnect=1.0))
        assert injector.wire_fault() == "disconnect"
        assert injector.counters["disconnects"] == 1
        assert injector.stats()["injected"]["disconnects"] == 1

    def test_delay_and_partial_bounds(self):
        injector = ChaosInjector(ChaosConfig(delay=1.0, delay_s=0.02))
        for _ in range(50):
            assert 0.01 <= injector.delay_seconds() <= 0.02
            assert 0 <= injector.partial_prefix(100) < 100

    def test_fault_for_session_arms_durability_faults(self):
        injector = ChaosInjector(ChaosConfig(
            wal_error=1.0, evict_crash=1.0, seed=1,
        ))
        fault = injector.fault_for_session("s1")
        assert isinstance(fault, FaultInjector)
        assert fault.crash_at == {"checkpoint.files": 1}
        nth, code = fault.error_at["wal.append.before"]
        assert 2 <= nth <= 12
        assert code == errno.ENOSPC
        quiet = ChaosInjector(ChaosConfig(seed=1))
        assert quiet.fault_for_session("s1") is None


class _Sink:
    """A stream writer that keeps what it is given."""

    def __init__(self):
        self.sent = b""
        self.closed = False

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True


class TestTornWrites:
    def test_partial_fault_cuts_a_group_of_lines_inside_a_line(self):
        service = RuleService(ServiceConfig(chaos="partial=1.0,seed=3"))
        lines = [encode_line({"event": "batch", "n": i}) for i in range(5)]
        whole = b"".join(lines)
        boundary = len(lines[0]) + len(lines[1])
        try:
            # A cut that falls between two lines moves back into the
            # first of them; any other stays where the dice put it.
            for cut, kept in ((boundary, boundary - 1),
                              (boundary + 3, boundary + 3), (0, 0)):
                service.chaos.partial_prefix = lambda size, cut=cut: cut
                sink = _Sink()
                with pytest.raises(ConnectionResetError):
                    asyncio.run(service._send_lines(sink, lines))
                assert sink.closed
                assert sink.sent == whole[:kept]
                assert not sink.sent.endswith(b"\n")
        finally:
            service._executor.shutdown()

    def test_a_fault_tears_only_the_write_it_falls_on(self):
        # Past the write budget a response leaves in several writes: a
        # fault on the second keeps the first whole and cuts the second
        # inside a line.
        service = RuleService(ServiceConfig(chaos="partial=1.0,seed=3"))
        lines = [encode_line({"event": "batch", "n": i, "pad": "x" * 1000})
                 for i in range(100)]
        whole = b"".join(lines)
        first = next(size for size in accumulate(map(len, lines))
                     if size >= _WRITE_BYTES)
        faults = iter((None, "partial"))
        service.chaos.wire_fault = lambda: next(faults)
        service.chaos.partial_prefix = lambda size: size // 2
        sink = _Sink()
        try:
            with pytest.raises(ConnectionResetError):
                asyncio.run(service._send_lines(sink, lines))
        finally:
            service._executor.shutdown()
        assert first < len(whole)
        assert whole.startswith(sink.sent)
        assert first < len(sink.sent) < len(whole)
        assert not sink.sent.endswith(b"\n")
        assert service.counters["response_bytes"] == first


class TestLiveWireChaos:
    def test_keyed_workload_survives_wire_faults(self, tmp_path):
        # Rates are per outbound *write*; a response's lines leave in
        # groups, so most responses are one roll of these dice.
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"), engine_workers=2,
            chaos="disconnect=0.04,partial=0.03,delay=0.1,"
                  "delay_s=0.002,seed=13",
        )) as thread:
            with ServiceClient(
                *thread.address, seed=5, max_retries=200,
                retry_budget_s=120.0, backoff_base=0.005,
            ) as client:
                client.create(
                    "wired", PROGRAM, durable=True,
                    retry=True, idempotent=True,
                )
                for i in range(10):
                    client.assert_facts(
                        "wired", [("order", {"id": i, "status": "open"})],
                        retry=True, idempotent=True,
                    )
                    response, _ = client.run(
                        "wired", retry=True, idempotent=True,
                    )
                    assert response.get("halted") is False
                response, _ = client.facts("wired", "order", retry=True)
                # Exactly once despite torn connections and resends.
                assert response["count"] == 10
                response, _ = client.facts("wired", "shipped", retry=True)
                assert response["count"] == 10
                stats = client.stats()
                injected = stats["chaos"]["injected"]
                assert sum(injected.values()) > 0
                assert client.reconnects > 0
                assert client.deduped >= 0

    def test_session_kills_recover_via_resume(self, tmp_path):
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"), engine_workers=2,
            chaos="kill=0.25,seed=7",
        )) as thread:
            with ServiceClient(*thread.address, seed=11) as client:
                client.create(
                    "doomed", PROGRAM, durable=True,
                    retry=True, idempotent=True,
                )
                applied = 0
                kills_seen = 0
                for i in range(12):
                    key = f"doomed-a{i}"
                    for _attempt in range(8):
                        try:
                            client.assert_facts(
                                "doomed",
                                [("order", {"id": i, "status": "held"})],
                                retry=True, key=key,
                            )
                            applied += 1
                            break
                        except ServiceClientError as error:
                            if error.code != "no_session":
                                raise
                            kills_seen += 1
                            client.create(
                                "doomed", "", resume=True,
                                retry=True, idempotent=True,
                            )
                    else:
                        pytest.fail("session never recovered")
                assert applied == 12
                response, _ = client.facts("doomed", "order", retry=True)
                assert response["count"] == 12
                stats = client.stats()
                assert stats["server"]["chaos_kills"] >= 1
                assert kills_seen >= 1
                assert stats["registry"]["resumed"] >= 1

    def test_crash_in_a_deferred_checkpoint_drops_the_session(
            self, tmp_path, monkeypatch):
        # evict_crash arms a crash inside the session's first
        # checkpoint, here the one a request's log growth defers past
        # its response.  The request was answered; the dead session is
        # dropped and resumes from its log intact.
        monkeypatch.setattr(manager, "FLOOR", 1024)
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"), engine_workers=1,
            chaos="evict_crash=1.0,seed=3",
        )) as thread:
            with ServiceClient(*thread.address) as client:
                client.create("fragile", PROGRAM, durable=True)
                orders = [("order", {"id": i, "status": "held"})
                          for i in range(40)]
                assert client.assert_facts(
                    "fragile", orders)["ingested"] == 40
                with pytest.raises(ServiceClientError) as info:
                    client.facts("fragile")
                assert info.value.code == "no_session"
                assert client.stats()["registry"][
                    "checkpoint_failures"] == 1
                resumed = client.create("fragile", "", resume=True)
                assert resumed["wm_size"] == 40
                assert resumed["replayed"] > 0

    def test_wal_enospc_is_retryable_and_exactly_once(self, tmp_path):
        # wal_error=1.0 arms a one-shot ENOSPC on the session's 2nd-12th
        # WAL append; create logs one meta record, so twelve single-fact
        # keyed asserts are guaranteed to cross the armed append.  The
        # failed batch rolls back whole, the client retries on
        # ``unavailable``, and the retry applies it exactly once.
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"), engine_workers=2,
            chaos="wal_error=1.0,seed=21",
        )) as thread:
            with ServiceClient(*thread.address, seed=2) as client:
                client.create("squeezed", PROGRAM, durable=True)
                for i in range(12):
                    response = client.assert_facts(
                        "squeezed",
                        [("order", {"id": i, "status": "held"})],
                        retry=True, idempotent=True,
                    )
                    assert response["ingested"] == 1
                response, _ = client.facts("squeezed", "order")
                assert response["count"] == 12
                # Time tags stayed dense: the rolled-back batch did not
                # burn tags (12 orders end at tag 12).
                _, events = client.facts("squeezed", "order")
                assert max(e["tag"] for e in events) == 12
                stats = client.stats()
                assert stats["server"]["unavailable_errors"] >= 1
                assert client.retries >= 1

    def test_failed_group_sync_fails_the_request_then_converges(
            self, tmp_path):
        # The one fsync of a durable request runs after its in-memory
        # effects: an EIO from it must answer ``unavailable`` (never be
        # swallowed with the best-effort journal append), and the keyed
        # retry — a journal hit that appends nothing — must still issue
        # the owed sync before it is acknowledged.
        fault = FaultInjector()
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"), engine_workers=2,
        )) as thread:
            thread.service.registry.fault_factory = lambda sid: fault
            with ServiceClient(*thread.address) as client:
                client.create("synced", PROGRAM, durable=True)
                client.assert_facts("synced", [
                    ("order", {"id": i, "status": "open"})
                    for i in range(5)
                ])
                assert fault.counts["wal.fsync"] == 2  # one per request
                fault.error_at["wal.fsync"] = (3, errno.EIO)
                with pytest.raises(ServiceClientError) as info:
                    client.run("synced", key="run-1")
                assert info.value.code == "unavailable"
                assert info.value.response["retry_after"] > 0
                [session] = client.stats()["sessions"]
                assert session["wal_fsyncs"] == 2
                records = session["wal_records"]
                again, events = client.run("synced", key="run-1")
                assert again["deduped"] is True and again["fired"] == 5
                assert events == []  # nothing new fired
                stats = client.stats()
                [session] = stats["sessions"]
                assert session["wal_fsyncs"] == 3  # 5 firings, one sync
                assert session["wal_records"] == records
                assert stats["server"]["unavailable_errors"] == 1
                assert stats["breakers"]["tracked"] == 1
                response, _ = client.facts("synced", "shipped")
                assert response["count"] == 5
                # The ``j`` frame was written and is now synced: the
                # answer survives a close-without-checkpoint + resume.
                client.close_session("synced")
                client.create("synced", "", resume=True)
                resumed, _ = client.run("synced", key="run-1")
                assert resumed["deduped"] is True and resumed["fired"] == 5
