"""Unit tests for atomic checkpoints and their validation."""

import json
import os

import pytest

from repro import DurabilityConfig, RuleEngine
from repro.durability import manager
from repro.durability.checkpoint import (
    checkpoint_dirname,
    checkpoint_size,
    list_checkpoints,
    load_checkpoint,
    program_source,
    prune_checkpoints,
    read_current,
    write_checkpoint,
)
from repro.errors import RecoveryError
from repro.wm.snapshot import dump_wm


def _write(tmp_path, **overrides):
    kwargs = dict(
        wm_snapshot={"version": 1, "next_tag": 1, "wmes": []},
        wal_position=(1, 0),
        next_tag=1,
        program="",
        matcher_name="rete",
        strategy_name="lex",
        fired=[],
        cycle_count=0,
    )
    kwargs.update(overrides)
    return write_checkpoint(str(tmp_path), **kwargs)


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        path = _write(
            tmp_path,
            wm_snapshot={"version": 1, "next_tag": 3,
                         "wmes": [{"class": "a", "tag": 2, "values": {}}]},
            wal_position=(2, 17),
            next_tag=3,
            program="(literalize a)",
            cycle_count=5,
        )
        assert os.path.basename(path) == checkpoint_dirname(1)
        assert read_current(str(tmp_path)) == checkpoint_dirname(1)
        loaded = load_checkpoint(str(tmp_path))
        assert loaded.manifest["wal"] == [2, 17]
        assert loaded.manifest["next_tag"] == 3
        assert loaded.manifest["cycle_count"] == 5
        assert loaded.manifest["program"] == "(literalize a)"
        assert loaded.wm_snapshot["wmes"][0]["class"] == "a"

    def test_sequence_numbers_advance(self, tmp_path):
        _write(tmp_path)
        path = _write(tmp_path)
        assert os.path.basename(path) == checkpoint_dirname(2)
        assert read_current(str(tmp_path)) == checkpoint_dirname(2)

    def test_no_current_means_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path)) is None

    def test_members_are_wm_and_manifest_only(self, tmp_path):
        path = _write(tmp_path)
        assert sorted(os.listdir(path)) == ["MANIFEST.json", "wm.json"]


class TestValidation:
    def test_crc_mismatch_refused(self, tmp_path):
        path = _write(tmp_path)
        member = os.path.join(path, "wm.json")
        with open(member, "a") as handle:
            handle.write(" ")
        with pytest.raises(RecoveryError, match="CRC"):
            load_checkpoint(str(tmp_path))

    def test_missing_member_refused(self, tmp_path):
        path = _write(tmp_path)
        os.remove(os.path.join(path, "wm.json"))
        with pytest.raises(RecoveryError, match="missing member"):
            load_checkpoint(str(tmp_path))

    def test_current_naming_missing_checkpoint_refused(self, tmp_path):
        _write(tmp_path)
        with open(tmp_path / "CURRENT", "w") as handle:
            handle.write("checkpoint-00000099\n")
        with pytest.raises(RecoveryError, match="no such checkpoint"):
            load_checkpoint(str(tmp_path))

    def test_version_mismatch_refused(self, tmp_path):
        path = _write(tmp_path)
        manifest_path = os.path.join(path, "MANIFEST.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 99
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RecoveryError, match="version"):
            load_checkpoint(str(tmp_path))

    def test_unreadable_manifest_refused(self, tmp_path):
        path = _write(tmp_path)
        with open(os.path.join(path, "MANIFEST.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(RecoveryError, match="unreadable manifest"):
            load_checkpoint(str(tmp_path))


class TestPrune:
    def test_retains_newest_and_clears_tmp(self, tmp_path):
        for _ in range(4):
            _write(tmp_path)
        leftover = tmp_path / "checkpoint-00000099.tmp"
        leftover.mkdir()
        removed = prune_checkpoints(str(tmp_path), retain=2)
        kept = [seq for seq, _ in list_checkpoints(str(tmp_path))]
        assert kept == [3, 4]
        assert len(removed) == 2
        assert not leftover.exists()

    def test_never_removes_current(self, tmp_path):
        for _ in range(3):
            _write(tmp_path)
        # Point CURRENT at the oldest; prune must spare it.
        with open(tmp_path / "CURRENT", "w") as handle:
            handle.write(checkpoint_dirname(1) + "\n")
        prune_checkpoints(str(tmp_path), retain=1)
        kept = [seq for seq, _ in list_checkpoints(str(tmp_path))]
        assert 1 in kept


class TestEngineSupport:
    def test_program_source_round_trips(self):
        program = """
        (literalize player name team)
        (p hello (player ^name <n>) --> (write hi <n>))
        """
        engine = RuleEngine()
        engine.load(program)
        source = program_source(engine)
        clone = RuleEngine()
        clone.load(source)
        assert set(clone.rules) == {"hello"}
        assert clone.wm.registry.attributes_of("player") == (
            "name", "team",
        )

    def test_dump_wm_feeds_checkpoint(self, tmp_path):
        engine = RuleEngine()
        engine.make("a", x=1)
        _write(tmp_path, wm_snapshot=dump_wm(engine.wm))
        loaded = load_checkpoint(str(tmp_path))
        assert loaded.wm_snapshot["shapes"] == [["a", ["x"]]]
        assert loaded.wm_snapshot["wmes"] == [[0, 1, 1]]


MARK_PROGRAM = """
(literalize item v)
(literalize done v)
(p mark (item ^v <v>) -(done ^v <v>) --> (make done ^v <v>))
"""


class TestSelfCheckpoint:
    """A durable run checkpoints itself once the log since the last
    checkpoint passes ``max(FLOOR, MULTIPLE x that checkpoint's
    bytes)``."""

    @pytest.fixture
    def bound(self, monkeypatch):
        monkeypatch.setattr(manager, "FLOOR", 1024)
        monkeypatch.setattr(manager, "MULTIPLE", 2)
        return manager

    def _engine(self, tmp_path):
        engine = RuleEngine(durability=DurabilityConfig(tmp_path))
        engine.load(MARK_PROGRAM)
        return engine

    def test_floor_then_multiple_of_the_checkpoint(self, bound, tmp_path):
        engine = self._engine(tmp_path)
        durability = engine.durability
        while durability.wal_bytes_since_checkpoint <= bound.FLOOR:
            assert not durability.checkpoint_due()
            engine.make("item", v=durability.wal.records)
        assert durability.checkpoint_due()
        engine.run()
        assert durability.checkpoints == 1
        assert durability.wal_bytes_since_checkpoint == 0
        path = os.path.join(str(tmp_path), read_current(str(tmp_path)))
        assert durability.checkpoint_bytes == checkpoint_size(path)
        assert 2 * durability.checkpoint_bytes > bound.FLOOR
        while (durability.wal_bytes_since_checkpoint
               <= 2 * durability.checkpoint_bytes):
            assert not durability.checkpoint_due()
            engine.make("item", v=-durability.wal.records)
        assert durability.checkpoint_due()
        engine.close()

    def test_run_waits_for_the_outermost_commit_scope(self, bound,
                                                      tmp_path):
        engine = self._engine(tmp_path)
        with engine.batch():
            for v in range(200):
                engine.make("item", v=v)
        assert engine.durability.checkpoint_due()
        with engine.durability.commit_scope():
            assert engine.run() == 200
        assert engine.durability.checkpoints == 0
        assert list_checkpoints(str(tmp_path)) == []
        engine.run()
        assert engine.durability.checkpoints == 1
        engine.close()

    def test_recovery_keeps_the_bound_and_writes_nothing(self, bound,
                                                         tmp_path):
        engine = self._engine(tmp_path)
        engine.load_facts([("item", {"v": v}) for v in range(200)])
        engine.run()
        path = engine.checkpoint()
        for v in range(10):
            engine.make("item", v=1000 + v)
        since = engine.durability.wal_bytes_since_checkpoint
        engine.close()

        recovered = RuleEngine.recover(str(tmp_path))
        durability = recovered.durability
        assert durability.checkpoints == 0
        assert durability.checkpoint_bytes == checkpoint_size(path)
        # The replayed tail, plus the meta frame logging resumed with.
        assert (durability.wal_bytes_since_checkpoint
                == since + durability.wal.bytes)
        assert [os.path.basename(p) for _, p in
                list_checkpoints(str(tmp_path))][-1] == (
            os.path.basename(path)
        )
        recovered.close()
