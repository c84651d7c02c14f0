"""Checkpoints of a DIPS engine on the sqlite storage backend.

COND tables are derived state on every backend: a checkpoint stores
``wm.json`` alone, and recovery rebuilds the tables by replaying it and
then the WAL tail.  The manifest records a non-memory backend spec so
the rebuild runs on the same kind of store.  Recovery must

* rebuild on the recorded backend when the caller does not say
  otherwise, and honour an explicit override;
* end up in *exactly* the live engine's state, row ids included;
* keep memory-backed manifests as they were (no backend field);
* still load a checkpoint written with a ``dips.sqlite3`` member (the
  whole COND database, as older writers stored it): the member is
  CRC-checked and otherwise ignored.
"""

import json
import os
import sqlite3
import zlib

import pytest

from repro import DurabilityConfig, RuleEngine
from repro.dips import DipsMatcher
from repro.durability.checkpoint import (
    MANIFEST_NAME,
    WM_SNAPSHOT_NAME,
    read_current,
)
from repro.errors import RecoveryError
from repro.rdb.memory_backend import MemoryBackend
from repro.rdb.sqlite_backend import SqliteBackend

PROGRAM = """
(literalize item owner v)
(literalize owner name)
(literalize tally owner total)
(p tally-owner
  (owner ^name <o>)
  { [item ^owner <o> ^v <v>] <S> }
  :test ((count <S>) >= 1)
  -->
  (make tally ^owner <o> ^total (sum <S> ^v))
  (write tallied <o>))
"""

#: The member older writers added on the sqlite backend.
OLD_MEMBER = "dips.sqlite3"


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def cond_state(matcher):
    """Every COND table's full contents, comparable across backends."""
    state = {}
    for name in matcher.db.table_names():
        table = matcher.db.table(name)
        state[name] = [
            (rid, tuple(sorted(row.items()))) for rid, row in table.rows()
        ]
    return state


def _workload(wal_dir, backend):
    engine = RuleEngine(
        matcher=DipsMatcher(backend=backend),
        durability=DurabilityConfig(wal_dir, fsync="off"),
    )
    engine.load(PROGRAM)
    with engine.batch():
        for name in ("ann", "bob"):
            engine.make("owner", name=name)
        for i in range(4):
            engine.make("item", owner=("ann", "bob")[i % 2], v=i)
    engine.run()
    return engine


def _manifest(wal_dir):
    current = read_current(str(wal_dir))
    with open(os.path.join(str(wal_dir), current, MANIFEST_NAME)) as fh:
        return json.load(fh), os.path.join(str(wal_dir), current)


def _tallies(engine):
    return sorted(
        w.get("total") for w in engine.wm if w.wme_class == "tally"
    )


class TestManifest:
    def test_manifest_records_backend_and_wm_only(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        manifest, path = _manifest(tmp_path)
        assert manifest["rdb_backend"] == "sqlite"
        assert list(manifest["files"]) == [WM_SNAPSHOT_NAME]
        assert "binary" not in manifest
        assert sorted(os.listdir(path)) == [MANIFEST_NAME, WM_SNAPSHOT_NAME]
        engine.close()

    def test_file_backed_spec_recorded(self, tmp_path):
        db_path = str(tmp_path / "cond.db")
        engine = _workload(
            tmp_path / "wal", SqliteBackend(db_path)
        )
        engine.checkpoint()
        manifest, _ = _manifest(tmp_path / "wal")
        assert manifest["rdb_backend"] == f"sqlite:{db_path}"
        engine.close()

    def test_memory_checkpoint_unchanged(self, tmp_path):
        engine = _workload(tmp_path, MemoryBackend())
        engine.checkpoint()
        manifest, _ = _manifest(tmp_path)
        assert "rdb_backend" not in manifest
        assert list(manifest["files"]) == [WM_SNAPSHOT_NAME]
        engine.close()


class TestRebuiltRecovery:
    def test_recovery_rebuilds_on_recorded_backend(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_RDB_BACKEND", raising=False)
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert isinstance(
            recovered.matcher.storage_backend, SqliteBackend
        )
        assert wm_state(recovered) == wm_state(engine)
        assert cond_state(recovered.matcher) == cond_state(engine.matcher)
        recovered.close()
        engine.close()

    def test_rebuilt_state_is_the_same_on_either_backend(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        on_sqlite = RuleEngine.recover(tmp_path, durability=False)
        on_memory = RuleEngine.recover(
            tmp_path, durability=False, backend="memory"
        )
        assert isinstance(on_memory.matcher.storage_backend, MemoryBackend)
        assert cond_state(on_sqlite.matcher) == cond_state(
            on_memory.matcher
        )
        assert cond_state(on_sqlite.matcher) == cond_state(engine.matcher)
        assert wm_state(on_sqlite) == wm_state(on_memory)
        on_sqlite.close()
        on_memory.close()
        engine.close()

    def test_recovery_preserves_refraction(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        # Everything already fired before the checkpoint.
        assert recovered.run() == 0
        recovered.close()
        engine.close()

    def test_recovery_continues_matching(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        engine.close()
        recovered = RuleEngine.recover(tmp_path)
        recovered.make("owner", name="cyd")
        recovered.make("item", owner="cyd", v=9)
        assert recovered.run() == 1
        assert recovered.output == ["tallied cyd"]
        tallies = [
            w for w in recovered.wm
            if w.wme_class == "tally" and w.get("owner") == "cyd"
        ]
        assert [w.get("total") for w in tallies] == [9]
        recovered.close()

    def test_checkpoint_plus_tail_replay(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        engine.make("owner", name="cyd")
        engine.make("item", owner="cyd", v=7)
        engine.run()  # past-checkpoint firing lands in the WAL tail
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert wm_state(recovered) == wm_state(engine)
        assert cond_state(recovered.matcher) == cond_state(engine.matcher)
        assert recovered.run() == 0
        recovered.close()
        engine.close()

    def test_program_override(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        engine.close()
        recovered = RuleEngine.recover(
            tmp_path, durability=False, program=PROGRAM
        )
        reference = RuleEngine.recover(
            tmp_path, durability=False, backend="memory"
        )
        assert cond_state(recovered.matcher) == cond_state(
            reference.matcher
        )
        assert recovered.run() == 0
        recovered.close()
        reference.close()


def _add_old_member(wal_dir):
    """Rewrite the CURRENT checkpoint as an older writer left it: a
    sqlite database member listed in ``files`` and ``binary``."""
    manifest, path = _manifest(wal_dir)
    member = os.path.join(path, OLD_MEMBER)
    conn = sqlite3.connect(member)
    conn.execute('CREATE TABLE "COND-item" (__rid__ INTEGER PRIMARY KEY)')
    conn.execute('INSERT INTO "COND-item" VALUES (1)')
    conn.commit()
    conn.close()
    with open(member, "rb") as fh:
        manifest["files"][OLD_MEMBER] = zlib.crc32(fh.read())
    manifest["binary"] = [OLD_MEMBER]
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh)
    return member


class TestOlderCheckpointFormat:
    def test_checkpoint_with_database_member_recovers(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        _add_old_member(tmp_path)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert isinstance(
            recovered.matcher.storage_backend, SqliteBackend
        )
        assert wm_state(recovered) == wm_state(engine)
        assert cond_state(recovered.matcher) == cond_state(engine.matcher)
        assert recovered.run() == 0
        assert _tallies(recovered) == [2, 4]
        recovered.close()
        engine.close()

    def test_corrupt_database_member_is_refused(self, tmp_path):
        engine = _workload(tmp_path, SqliteBackend())
        engine.checkpoint()
        engine.close()
        member = _add_old_member(tmp_path)
        with open(member, "r+b") as fh:
            fh.seek(100)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(RecoveryError):
            RuleEngine.recover(tmp_path, durability=False)
