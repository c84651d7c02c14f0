"""Session lifecycle: validation, eviction, resume, tenant isolation."""

from __future__ import annotations

import pytest

from repro.durability import FaultInjector
from repro.errors import AdmissionError, DurabilityError, ServiceError
from repro.service.rulebase import RuleBaseCache
from repro.service.session import SessionRegistry, validate_session_id

PROGRAM = """
(literalize item name qty)
(literalize total n)
(p count-items
  { [item] <all> }
  :test ((count <all>) >= 1)
  -(total)
  -->
  (make total ^n (count <all>)))
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(tmp_path, clock):
    return SessionRegistry(
        RuleBaseCache(),
        wal_root=tmp_path / "wal",
        max_sessions=3,
        idle_ttl=60.0,
        clock=clock,
    )


class TestSessionIds:
    @pytest.mark.parametrize("good", ["a", "tenant-1", "A.b_c-9", "9x"])
    def test_accepts(self, good):
        assert validate_session_id(good) == good

    @pytest.mark.parametrize("bad", [
        "", ".hidden", "-lead", "a/b", "../escape", "a" * 65,
        "sp ace", None, 7,
    ])
    def test_rejects(self, bad):
        with pytest.raises(ServiceError):
            validate_session_id(bad)


class TestRegistry:
    def test_create_get_close(self, registry):
        session, hit = registry.create("t1", PROGRAM)
        assert hit is False
        assert registry.get("t1") is session
        assert "t1" in registry
        registry.close_session("t1")
        assert "t1" not in registry
        with pytest.raises(ServiceError):
            registry.get("t1")

    def test_duplicate_id_rejected(self, registry):
        registry.create("t1", PROGRAM)
        with pytest.raises(ServiceError, match="already exists"):
            registry.create("t1", PROGRAM)

    def test_second_session_hits_rule_base(self, registry):
        _, first = registry.create("t1", PROGRAM)
        _, second = registry.create("t2", PROGRAM)
        assert first is False
        assert second is True

    def test_tenant_state_is_isolated(self, registry):
        one, _ = registry.create("t1", PROGRAM)
        two, _ = registry.create("t2", PROGRAM)
        one.engine.load_facts([("item", {"name": "a", "qty": 1})])
        one.engine.run()
        assert len(one.engine.wm) == 2  # item + total
        assert len(two.engine.wm) == 0

    def test_close_is_idempotent(self, registry):
        session, _ = registry.create("t1", PROGRAM)
        registry.close_session("t1")
        # Eviction racing a client disconnect: both paths close().
        session.close()
        session.close(checkpoint=True)


class TestLruEviction:
    def test_lru_idle_session_evicted_at_capacity(self, registry, clock):
        for i in range(3):
            registry.create(f"t{i}", PROGRAM)
            clock.advance(1.0)
        registry.get("t0")  # t1 becomes least recently used
        clock.advance(1.0)
        registry.create("t3", PROGRAM)
        assert "t1" not in registry
        assert all(t in registry for t in ("t0", "t2", "t3"))
        assert registry.evicted_lru == 1

    def test_all_busy_rejects_with_backpressure(self, registry):
        for i in range(3):
            session, _ = registry.create(f"t{i}", PROGRAM)
            session.pending = 1
        with pytest.raises(AdmissionError) as info:
            registry.create("t9", PROGRAM)
        assert info.value.retry_after > 0

    def test_evicted_session_is_checkpointed(self, registry, clock):
        session, _ = registry.create("t0", PROGRAM)
        session.engine.load_facts([("item", {"name": "a", "qty": 1})])
        for i in range(1, 4):
            clock.advance(1.0)
            registry.create(f"t{i}", PROGRAM)
        assert "t0" not in registry
        from repro.durability.checkpoint import list_checkpoints

        assert list_checkpoints(str(session.wal_dir))


class TestCheckpointFootprint:
    def test_info_counts_log_since_checkpoint(self, registry):
        session, _ = registry.create("t1", PROGRAM)
        session.engine.load_facts([("item", {"name": "a", "qty": 1})])
        info = session.info()
        assert info["checkpoints"] == 0
        assert info["wal_bytes_since_checkpoint"] == (
            session.engine.durability.wal.bytes
        ) > 0
        session.engine.checkpoint()
        info = session.info()
        assert info["checkpoints"] == 1
        assert info["wal_bytes_since_checkpoint"] == 0

    def test_non_durable_info_has_no_log_fields(self, registry):
        session, _ = registry.create("t1", PROGRAM, durable=False)
        assert "checkpoints" not in session.info()
        assert not session.checkpoint_due()

    def test_failed_close_checkpoint_is_counted(self, tmp_path, clock):
        registry = SessionRegistry(
            RuleBaseCache(), wal_root=tmp_path / "wal", clock=clock,
            fault_factory=lambda session_id: FaultInjector(
                error_at={"checkpoint.begin": 1}
            ),
        )
        session, _ = registry.create("t1", PROGRAM)
        registry.close_session("t1", checkpoint=True)
        assert registry.stats()["checkpoint_failures"] == 1
        assert session.closed  # the close went ahead


class TestIdleSweep:
    def test_sweeps_only_expired_idle_sessions(self, registry, clock):
        registry.create("old", PROGRAM)
        clock.advance(59.0)
        registry.create("young", PROGRAM)
        clock.advance(1.0)
        evicted = registry.sweep_idle()
        assert evicted == ["old"]
        assert "old" not in registry
        assert "young" in registry
        assert registry.evicted_idle == 1

    def test_busy_sessions_never_swept(self, registry, clock):
        session, _ = registry.create("busy", PROGRAM)
        session.pending = 1
        clock.advance(600.0)
        assert registry.sweep_idle() == []
        assert "busy" in registry


class TestResume:
    def test_evicted_session_resumes_from_wal(self, registry, clock):
        session, _ = registry.create("t1", PROGRAM)
        session.engine.load_facts([
            ("item", {"name": "a", "qty": 1}),
            ("item", {"name": "b", "qty": 2}),
        ])
        session.engine.run()
        fingerprint = sorted(
            (w.wme_class, w.time_tag) for w in session.engine.wm
        )
        clock.advance(120.0)
        assert registry.sweep_idle() == ["t1"]

        resumed, hit = registry.create("t1", "", resume=True)
        assert resumed.resumed is True
        assert hit is False
        assert sorted(
            (w.wme_class, w.time_tag) for w in resumed.engine.wm
        ) == fingerprint
        # Refraction survived: the counted total must not re-fire.
        assert resumed.engine.run() == 0

    def test_resume_requires_durability(self, tmp_path):
        registry = SessionRegistry(RuleBaseCache(), wal_root=None)
        with pytest.raises(ServiceError, match="resume"):
            registry.create("t1", "", resume=True)

    def test_fresh_create_on_used_dir_names_session(self, registry):
        session, _ = registry.create("tenant-7", PROGRAM)
        session.engine.load_facts([("item", {"name": "a", "qty": 1})])
        registry.close_session("tenant-7")
        # The guard must say *whose* WAL directory collided so a
        # service operator can map the failure to a tenant.
        with pytest.raises(DurabilityError, match="tenant-7"):
            registry.create("tenant-7", PROGRAM)


class TestCloseAll:
    def test_close_all_empties_registry(self, registry):
        for i in range(3):
            registry.create(f"t{i}", PROGRAM)
        registry.close_all()
        assert len(registry) == 0
        assert registry.stats()["closed"] == 3
