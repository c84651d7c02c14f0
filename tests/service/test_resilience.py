"""Graceful degradation: health, deadlines, circuit breakers, tiered
shedding, and drain-mode shutdown, driven over a live socket."""

from __future__ import annotations

import time

import pytest

from repro.errors import AdmissionError
from repro.service import (
    RuleService,
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)

PROGRAM = """
(literalize order id status)
(literalize shipped id)
(p ship-open
  (order ^id <i> ^status open)
  -(shipped ^id <i>)
  -->
  (make shipped ^id <i>))
"""

#: Monotonic counter: fires until the deadline watchdog stops it.
COUNTER_PROGRAM = """
(literalize tick n)
(p advance (tick ^n { <n> < 1000000 }) --> (modify 1 ^n (<n> + 1)))
"""


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    wal_root = tmp_path_factory.mktemp("resilience-wal")
    with ServiceThread(ServiceConfig(
        port=0, wal_root=str(wal_root), engine_workers=2,
        breaker_threshold=3, breaker_cooldown=0.4,
    )) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as connection:
        yield connection


def _unique(request):
    return request.node.name.replace("[", "-").replace("]", "")


class TestHealth:
    def test_health_reports_ready(self, client):
        health = client.health()
        assert health["healthy"] is True
        assert health["ready"] is True
        assert health["draining"] is False
        assert health["protocol"] == 2
        assert isinstance(health["sessions"], int)
        assert isinstance(health["open_breakers"], int)


class TestDeadlines:
    def test_expired_deadline_rejects_before_applying(
        self, client, request
    ):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        client.assert_facts(sid, [("order", {"id": 1, "status": "open"})])
        with pytest.raises(ServiceClientError) as info:
            client.assert_facts(
                sid, [("order", {"id": 2, "status": "open"})],
                deadline_ms=0,
            )
        assert info.value.code == "deadline"
        # Never applied: retrying with a fresh deadline is safe.
        assert info.value.retry_after == 0.0
        response, _ = client.facts(sid, "order")
        assert response["count"] == 1
        client.close_session(sid)

    def test_generous_deadline_serves_normally(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        response = client.assert_facts(
            sid, [("order", {"id": 1, "status": "open"})],
            deadline_ms=30_000,
        )
        assert response["ingested"] == 1
        client.close_session(sid)

    def test_deadline_stops_a_running_run(self, client, request):
        sid = _unique(request)
        client.create(sid, COUNTER_PROGRAM, durable=False)
        client.assert_facts(sid, [("tick", {"n": 0})])
        response, _ = client.run(sid, deadline_ms=50)
        # An in-flight deadline is not an error: the watchdog stops
        # the run and the partial progress is real and committed.
        assert response["stopped"] == "deadline"
        assert 0 < response["fired"] < 1_000_000
        client.close_session(sid)

    def test_malformed_deadline_is_bad_request(self, client, request):
        sid = _unique(request)
        with pytest.raises(ServiceClientError) as info:
            client.request(
                "assert", session=sid, facts=[], deadline_ms="soon",
            )
        assert info.value.code == "bad_request"


class TestCircuitBreaker:
    def test_breaker_trips_quarantines_and_recovers(
        self, client, request
    ):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        # Three consecutive engine failures trip the breaker.
        for _ in range(3):
            with pytest.raises(ServiceClientError) as info:
                client.assert_facts(sid, [("order", {"bogus": 1})])
            assert info.value.code == "engine"
        # Open: even a valid request is shed with the remaining
        # cooldown as the retry hint.
        with pytest.raises(ServiceBusyError) as busy:
            client.assert_facts(
                sid, [("order", {"id": 1, "status": "open"})]
            )
        assert "circuit" in str(busy.value)
        assert 0 < busy.value.retry_after <= 0.4
        assert client.health()["open_breakers"] >= 1
        stats = client.stats()
        assert stats["breakers"]["tracked"] >= 1
        assert stats["server"]["breaker_trips"] >= 1
        # After the cooldown, the half-open probe is admitted and its
        # success closes the breaker.
        time.sleep(0.45)
        response = client.assert_facts(
            sid, [("order", {"id": 1, "status": "open"})]
        )
        assert response["ingested"] == 1
        response = client.assert_facts(
            sid, [("order", {"id": 2, "status": "open"})]
        )
        assert response["wm_size"] == 2
        client.close_session(sid)

    def test_failed_probe_reopens_the_breaker(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        for _ in range(3):
            with pytest.raises(ServiceClientError):
                client.assert_facts(sid, [("order", {"bogus": 1})])
        time.sleep(0.45)
        # The probe fails too: quarantined again without three more
        # failures.
        with pytest.raises(ServiceClientError) as info:
            client.assert_facts(sid, [("order", {"bogus": 1})])
        assert info.value.code == "engine"
        with pytest.raises(ServiceBusyError):
            client.assert_facts(
                sid, [("order", {"id": 1, "status": "open"})]
            )
        client.close_session(sid)

    def test_close_clears_the_breaker(self, client, request):
        sid = _unique(request)
        client.create(sid, PROGRAM, durable=False)
        for _ in range(3):
            with pytest.raises(ServiceClientError):
                client.assert_facts(sid, [("order", {"bogus": 1})])
        client.close_session(sid)
        # A fresh session under the same id starts with a clean slate.
        client.create(sid, PROGRAM, durable=False)
        response = client.assert_facts(
            sid, [("order", {"id": 1, "status": "open"})]
        )
        assert response["ingested"] == 1
        client.close_session(sid)


class TestTieredShedding:
    def _service(self, **kwargs):
        return RuleService(ServiceConfig(**kwargs))

    def test_create_sheds_before_work(self):
        service = self._service(global_queue=10)
        try:
            service.global_pending = 8
            with pytest.raises(AdmissionError):
                service._admit_global(tier="create")
            service._admit_global(tier="work")  # still admitted
        finally:
            service._executor.shutdown(wait=False)

    def test_retry_after_scales_with_overload(self):
        service = self._service(global_queue=10)
        try:
            service.global_pending = 20
            with pytest.raises(AdmissionError) as info:
                service._admit_global(tier="work")
            overloaded = info.value.retry_after
            service.global_pending = 10
            with pytest.raises(AdmissionError) as info:
                service._admit_global(tier="work")
            assert overloaded > info.value.retry_after >= 0.05
        finally:
            service._executor.shutdown(wait=False)

    def test_tiny_queues_keep_one_create_slot_semantics(self):
        # With global_queue < 5 the create tier collapses onto the
        # global cap (the 80% split would otherwise admit nothing or
        # everything in odd ways).
        service = self._service(global_queue=2)
        try:
            service.global_pending = 1
            service._admit_global(tier="create")
            service.global_pending = 2
            with pytest.raises(AdmissionError):
                service._admit_global(tier="create")
        finally:
            service._executor.shutdown(wait=False)


class TestDrain:
    def test_drain_checkpoints_and_next_generation_resumes(
        self, tmp_path
    ):
        wal_root = tmp_path / "wal"
        config = dict(
            port=0, wal_root=str(wal_root), engine_workers=2,
        )
        with ServiceThread(ServiceConfig(**config)) as thread:
            with ServiceClient(*thread.address) as client:
                client.create("drained", PROGRAM, durable=True)
                client.assert_facts(
                    "drained", [("order", {"id": 1, "status": "open"})]
                )
                client.run("drained")
                address = thread.address
                thread.begin_drain()
                # Control ops keep working on the open connection...
                health = client.health()
                assert health["draining"] is True
                assert health["ready"] is False
                assert client.stats()["draining"] is True
                # ...work is rejected with a busy that names the drain...
                with pytest.raises(ServiceBusyError) as busy:
                    client.assert_facts(
                        "drained",
                        [("order", {"id": 2, "status": "open"})],
                    )
                assert busy.value.response.get("draining") is True
                # ...and new connections are refused outright.
                with pytest.raises(OSError):
                    ServiceClient(*address, timeout=2)
                thread.drain(grace=5)
            # Drain checkpointed the session on its way out.
            session_dir = wal_root / "drained"
            assert (session_dir / "CURRENT").exists()
        with ServiceThread(ServiceConfig(**config)) as thread:
            with ServiceClient(*thread.address) as client:
                created = client.create("drained", "", resume=True)
                assert created["resumed"] is True
                assert created["wm_size"] == 2  # order + shipped
                # Refraction survived: nothing re-fires.
                response, _ = client.run("drained")
                assert response["fired"] == 0

    def test_begin_drain_is_idempotent(self, tmp_path):
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"),
        )) as thread:
            thread.begin_drain()
            thread.begin_drain()
            thread.drain(grace=1)
            thread.drain(grace=1)
