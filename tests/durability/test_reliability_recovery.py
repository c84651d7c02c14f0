"""Recovery of reliability state: abort/quarantine/release/reset records.

The WAL gains four record kinds from the reliability subsystem —
``a`` (abort terminator with its containment outcome), ``q``
(quarantine), ``Q`` (release), ``R`` (reset) — and the checkpoint
manifest an optional ``reliability`` section.  These tests pin down
that recovery replays each to the exact live state: refraction stamps
restored for ``halt`` aborts and left consumed otherwise, dead-letter
lists rebuilt, quarantined rules re-parked (and their stamps found
there), and a reset wiping control state mid-log.
"""

import json
import os

import pytest

from repro import DurabilityConfig, RuleEngine
from repro.durability.wal import list_segments, read_log_tail
from repro.errors import EngineError, FiringError

from tests.conftest import cs_state

PROGRAM = """
(literalize item n)
(literalize out n)
(p bad (item ^n <n>) (item ^n { <m> > <n> }) --> (call explode))
(p good (item ^n <n>) --> (make out ^n <n>))
"""


def _boom(*args):
    raise ValueError("boom")


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def record_kinds(path):
    payloads, _, _ = read_log_tail(path, None)
    return [p.get("k") for p in payloads]


def _durable(tmp_path, **kwargs):
    engine = RuleEngine(
        durability=DurabilityConfig(tmp_path, fsync="off"), **kwargs
    )
    engine.load(PROGRAM)
    engine.register_function("explode", _boom)
    return engine


class TestAbortRecords:
    def test_halt_abort_is_logged_and_stamp_restored(self, tmp_path):
        engine = _durable(tmp_path)
        engine.make("item", n=1)
        engine.make("item", n=2)
        with pytest.raises(FiringError):
            engine.run()
        live = (wm_state(engine), cs_state(engine))
        engine.close()
        kinds = record_kinds(tmp_path)
        assert "a" in kinds and kinds.index("f") < kinds.index("a")
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert (wm_state(recovered), cs_state(recovered)) == live
        # halt restored the stamp: the poison instantiation is still
        # eligible after recovery, exactly as it is live.
        bad = [i for i in recovered.conflict_set.instantiations()
               if i.rule.name == "bad"]
        assert bad and bad[0].eligible()

    def test_skip_abort_replays_dead_letter_and_counts(self, tmp_path):
        engine = _durable(tmp_path, on_error="skip")
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run()
        live = (wm_state(engine), cs_state(engine))
        letters = [(d.rule_name, d.attempts, d.outcome, d.error)
                   for d in engine.dead_letters]
        engine.close()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert (wm_state(recovered), cs_state(recovered)) == live
        assert [(d.rule_name, d.attempts, d.outcome, d.error)
                for d in recovered.dead_letters] == letters
        assert recovered.reliability.failure_counts.get("bad") == 1

    def test_retry_aborts_then_commit_replay(self, tmp_path):
        engine = _durable(tmp_path, on_error="retry:2")
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")

        engine.register_function("explode", flaky)
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run()
        live = (wm_state(engine), cs_state(engine), engine.cycle_count)
        engine.close()
        kinds = record_kinds(tmp_path)
        # one retry abort, then the successful attempt's f..e bracket
        assert kinds.count("a") == 1
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert (wm_state(recovered), cs_state(recovered),
                recovered.cycle_count) == live
        assert recovered.dead_letters == []


class TestQuarantineRecords:
    def _run_poisoned(self, tmp_path):
        engine = _durable(tmp_path, on_error="quarantine:2")
        for n in (1, 2, 3):
            engine.make("item", n=n)
        engine.run()
        return engine

    def test_quarantine_replays_to_parked_rule(self, tmp_path):
        engine = self._run_poisoned(tmp_path)
        assert set(engine.quarantined_rules()) == {"bad"}
        parked = len(engine.conflict_set.parked_of_rule("bad"))
        live = (wm_state(engine), cs_state(engine))
        engine.close()
        assert "q" in record_kinds(tmp_path)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert set(recovered.quarantined_rules()) == {"bad"}
        assert len(recovered.conflict_set.parked_of_rule("bad")) == parked
        assert (wm_state(recovered), cs_state(recovered)) == live

    def test_release_record_replays(self, tmp_path):
        engine = self._run_poisoned(tmp_path)
        engine.release_rule("bad")
        live_cs = cs_state(engine)
        engine.close()
        assert "Q" in record_kinds(tmp_path)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert not recovered.quarantined_rules()
        assert recovered.conflict_set.parked_rules() == []
        assert cs_state(recovered) == live_cs

    def test_checkpoint_carries_reliability_section(self, tmp_path):
        engine = self._run_poisoned(tmp_path)
        path = engine.checkpoint()
        with open(os.path.join(path, "MANIFEST.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        section = manifest["reliability"]
        assert "bad" in section["quarantined"]
        assert section["failures"]["bad"] >= 2
        assert len(section["dead_letters"]) == 2
        def parked_state(e):
            return cs_state(e, e.conflict_set.parked_of_rule("bad"))

        live = (wm_state(engine), cs_state(engine), parked_state(engine))
        # Two pairs were attempted (consumed stamps, dead-lettered);
        # the third was never selected and is still eligible — parked.
        assert [e for *_, e in parked_state(engine)].count(False) == 2
        engine.close()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert set(recovered.quarantined_rules()) == {"bad"}
        assert len(recovered.dead_letters) == 2
        # Quarantined stamps were re-applied in the parked pool:
        # exactly the live eligibility pattern comes back.
        assert (wm_state(recovered), cs_state(recovered),
                parked_state(recovered)) == live

    def test_clean_checkpoint_has_no_reliability_section(self, tmp_path):
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        engine.load(PROGRAM)
        engine.make("item", n=1)
        path = engine.checkpoint()
        with open(os.path.join(path, "MANIFEST.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert "reliability" not in manifest
        engine.close()


class TestResetRecords:
    def test_recover_after_reset(self, tmp_path):
        engine = _durable(tmp_path, on_error="skip")
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run()
        assert engine.dead_letters
        engine.reset()
        engine.make("item", n=7)
        engine.run()
        live = (wm_state(engine), cs_state(engine), engine.cycle_count)
        engine.close()
        assert "R" in record_kinds(tmp_path)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert (wm_state(recovered), cs_state(recovered),
                recovered.cycle_count) == live
        # The reset wiped the pre-reset dead letters, live and replayed.
        assert recovered.dead_letters == []
        assert recovered.halted is False

    def test_reset_clears_quarantine_in_replay(self, tmp_path):
        engine = _durable(tmp_path, on_error="quarantine:1")
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run()
        assert set(engine.quarantined_rules()) == {"bad"}
        engine.reset()
        engine.close()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert not recovered.quarantined_rules()
        assert recovered.conflict_set.parked_rules() == []
        assert len(recovered.wm) == 0

    def test_reset_inside_batch_refuses_before_logging(self, tmp_path):
        engine = _durable(tmp_path)
        engine.make("item", n=1)
        with pytest.raises(EngineError):
            with engine.batch():
                engine.reset()
        engine.close()
        assert "R" not in record_kinds(tmp_path)


class TestWalAppendErrorSatellite:
    def test_fire_end_failure_is_counted_not_swallowed(self, tmp_path):
        from repro.engine.stats import MatchStats
        from repro.errors import WalError

        # Fail the WAL append of the fire-end terminator only: the
        # firing's effects are durable, the terminator is not.  The
        # old code swallowed this silently (`except Exception: pass`);
        # now it surfaces as a counter + trace note.
        engine = RuleEngine(
            stats=MatchStats(),
            durability=DurabilityConfig(tmp_path, fsync="off"),
        )
        engine.load("""
(literalize item n)
(literalize out n)
(p good (item ^n <n>) --> (make out ^n <n>))
""")
        wal = engine.durability.wal
        original = wal.append

        def failing(payload, **kwargs):
            if payload.get("k") == "e":
                raise WalError("disk says no")
            return original(payload, **kwargs)

        wal.append = failing
        engine.make("item", n=1)
        fired = engine.run()
        assert fired == 1  # the firing itself committed
        assert engine.stats.counters.get("wal_append_errors", 0) == 1
        noted = [r for r in engine.tracer.firings if r.note]
        assert noted and "append failed" in noted[0].note
        wal.append = original
        engine.close()
        # The bracket is unterminated on disk, so recovery rolls the
        # firing back wholesale to the last durable state: the seed
        # item survives, the firing's effects do not.
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert recovered.recovery_report.dropped_records >= 1
        assert [w.wme_class for w in recovered.wm] == ["item"]


class TestUsedDirGuardStillHolds:
    def test_fresh_engine_refuses_directory_with_abort_records(
            self, tmp_path):
        engine = _durable(tmp_path, on_error="skip")
        engine.make("item", n=1)
        engine.make("item", n=2)
        engine.run()
        engine.close()
        assert any(
            size for _, path in list_segments(tmp_path)
            for size in [os.path.getsize(path)]
        )
        from repro.errors import DurabilityError

        with pytest.raises(DurabilityError):
            RuleEngine(durability=DurabilityConfig(tmp_path))
