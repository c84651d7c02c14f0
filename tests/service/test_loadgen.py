"""The load generator: percentile math, shed-vs-error classification,
and a small end-to-end drive."""

from __future__ import annotations

from repro.service import (
    ServiceBusyError,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)
from repro.service.loadgen import (
    DEFAULT_PROGRAM,
    _Worker,
    main,
    percentile,
    run_load,
)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_median_and_tail(self):
        values = sorted(float(i) for i in range(1, 101))
        # Nearest-rank over indices 0..99: 0.5 lands on index 50.
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0


def _worker(**overrides):
    kwargs = dict(
        program=DEFAULT_PROGRAM, matcher="rete", ticks=1,
        facts_per_tick=1, rate=None, durable=False, parallel=False,
        session_prefix="unit",
    )
    kwargs.update(overrides)
    return _Worker(0, "127.0.0.1", 0, **kwargs)


class TestFailureClassification:
    def test_shed_load_is_not_an_error(self):
        worker = _worker()

        def busy():
            raise ServiceBusyError({
                "ok": False, "error": "busy", "message": "shed",
                "retry_after": 0.01,
            })

        result, ok = worker._call(None, busy)
        assert (result, ok) == (None, False)
        assert worker.shed == 1
        assert worker.errors == []

    def test_vanished_session_recovers_and_retries(self):
        worker = _worker()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceClientError({
                    "ok": False, "error": "no_session",
                    "message": "evicted",
                })
            return "applied"

        class _Recorder:
            created = None

            def create(self, sid, program, **kwargs):
                _Recorder.created = (sid, kwargs)
                return {"ok": True}

        result, ok = worker._call(_Recorder(), flaky)
        assert (result, ok) == ("applied", True)
        assert worker.session_restarts == 1
        assert worker.errors == []
        assert _Recorder.created[0] == "unit-0"

    def test_real_errors_are_recorded(self):
        worker = _worker()

        def broken():
            raise ServiceClientError({
                "ok": False, "error": "engine", "message": "halted",
            })

        result, ok = worker._call(None, broken)
        assert (result, ok) == (None, False)
        assert worker.shed == 0
        assert len(worker.errors) == 1
        assert "halted" in worker.errors[0]

    def test_connection_loss_is_an_error(self):
        worker = _worker()

        def torn():
            raise ConnectionError("wire gone")

        _result, ok = worker._call(None, torn)
        assert not ok
        assert any("wire gone" in e for e in worker.errors)


class TestRunLoad:
    def test_small_fleet_drives_cleanly(self):
        with ServiceThread(ServiceConfig(port=0)) as server:
            host, port = server.address
            report = run_load(
                host, port, sessions=3, ticks=2, facts_per_tick=5,
                matchers=("rete", "naive"),
            )
        assert report["errors"] == []
        assert report["events_total"] == 3 * 2 * 5
        assert report["firings"] > 0
        # Three sessions over two matchers: two compiles, one hit.
        assert report["server"]["rule_bases"]["compiles"] == 2
        assert report["rulebase_hits"] == 1
        for op in ("assert", "run"):
            summary = report["latency"][op]
            assert summary["count"] == 3 * 2
            assert summary["p99_ms"] >= summary["p50_ms"] >= 0

    def test_rate_pacing_slows_the_fleet(self):
        with ServiceThread(ServiceConfig(port=0)) as server:
            host, port = server.address
            report = run_load(
                host, port, sessions=1, ticks=3, facts_per_tick=10,
                rate=1000.0,  # 10 facts/tick @ 1000/s => >= 20ms floor
            )
        assert report["errors"] == []
        assert report["duration_s"] >= 0.02

    def test_report_carries_resilience_counters(self, tmp_path):
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"),
        )) as server:
            host, port = server.address
            report = run_load(
                host, port, sessions=2, ticks=2, facts_per_tick=3,
                durable=True, idempotent=True, deadline_ms=30000,
                session_prefix="counted",
            )
        assert report["errors"] == []
        assert report["idempotent"] is True
        assert report["durable"] is True
        for counter in ("busy_shed", "reconnects", "retries",
                        "deduped", "session_restarts"):
            assert report[counter] == 0, counter

    def test_aggressive_eviction_restarts_sessions(self, tmp_path):
        # A sweeper evicting after ~40ms idle forces mid-drive
        # restarts; with durable sessions every batch still lands and
        # the restarts are classified as recoveries, not errors.
        with ServiceThread(ServiceConfig(
            port=0, wal_root=str(tmp_path / "wal"),
            idle_ttl=0.04, sweep_interval=0.01,
        )) as server:
            host, port = server.address
            report = run_load(
                host, port, sessions=1, ticks=4, facts_per_tick=2,
                rate=40.0,  # 2 facts/tick @ 40/s => 50ms idle gaps
                durable=True, idempotent=True,
                session_prefix="swept",
            )
        assert report["errors"] == []
        assert report["session_restarts"] >= 1
        assert report["events_total"] == 4 * 2

    def test_default_program_parses(self):
        from repro.lang.parser import parse_program

        literalizations, rules = parse_program(DEFAULT_PROGRAM)
        assert len(rules) == 2
        assert len(literalizations) == 3


class TestCli:
    def test_self_serve_smoke(self, capsys, tmp_path):
        out = tmp_path / "load.json"
        code = main([
            "--sessions", "2", "--ticks", "2", "--facts", "5",
            "--json", str(out), "--fail-on-error",
        ])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "events_per_s" in captured.out
