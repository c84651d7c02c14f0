"""RuleEngine.close() idempotence.

The service layer's eviction sweeper and a client disconnect handler
may both close the same session — by design, without coordinating.
Every layer of teardown (engine, durability manager, WAL, working
memory detach) must therefore tolerate double and concurrent close.
"""

from __future__ import annotations

import threading

import pytest

from repro import RuleEngine
from repro.durability import DurabilityConfig
from repro.durability.wal import WriteAheadLog

PROGRAM = """
(literalize item name)
(p note (item ^name <n>) --> (write saw <n>))
"""


@pytest.fixture
def durable_engine(tmp_path):
    engine = RuleEngine(durability=DurabilityConfig(tmp_path / "wal"))
    engine.load(PROGRAM)
    engine.make("item", name="a")
    engine.run()
    return engine


class TestDoubleClose:
    def test_plain_engine(self):
        engine = RuleEngine()
        engine.load(PROGRAM)
        engine.close()
        engine.close()
        assert engine.closed

    def test_durable_engine(self, durable_engine):
        durable_engine.close()
        durable_engine.close()
        assert durable_engine.closed
        assert durable_engine.durability is None

    def test_close_after_close_before_any_run(self, tmp_path):
        engine = RuleEngine(durability=DurabilityConfig(tmp_path / "wal"))
        engine.load(PROGRAM)
        engine.close()
        engine.close()

    def test_closed_flag_starts_false(self):
        engine = RuleEngine()
        assert engine.closed is False
        engine.close()
        assert engine.closed is True


class TestConcurrentClose:
    def test_eviction_racing_disconnect(self, durable_engine):
        # Both paths call close() simultaneously; exactly one performs
        # the teardown, neither raises.
        barrier = threading.Barrier(2)
        errors = []

        def closer():
            try:
                barrier.wait(timeout=5)
                durable_engine.close()
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert durable_engine.closed

    def test_many_racing_closers(self, tmp_path):
        engine = RuleEngine(durability=DurabilityConfig(tmp_path / "w"))
        engine.load(PROGRAM)
        engine.load_facts([("item", {"name": f"i{i}"}) for i in range(5)])
        barrier = threading.Barrier(8)
        errors = []

        def closer():
            try:
                barrier.wait(timeout=5)
                engine.close()
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestWalClose:
    def test_wal_double_close(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append({"k": "m", "matcher": "rete", "strategy": "lex"},
                   batch=False)
        wal.close()
        wal.close()

    def test_wm_detach_twice_is_noop(self):
        engine = RuleEngine()
        events = []
        engine.wm.attach(events.append)
        engine.wm.detach(events.append)
        engine.wm.detach(events.append)  # must not raise

    def test_recover_after_double_close(self, tmp_path, durable_engine):
        durable_engine.close()
        durable_engine.close()
        engine = RuleEngine.recover(str(tmp_path / "wal"),
                                    durability=False)
        assert len(engine.wm) == 1
        engine.close()
