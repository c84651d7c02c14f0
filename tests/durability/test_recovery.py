"""Recovery: checkpoint restore + WAL replay rebuild identical state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DurabilityConfig, RuleEngine
from repro.durability import FaultInjector, SimulatedCrash
from repro.durability.faultfs import corrupt_record, tear_tail
from repro.durability.wal import FORMAT_VERSION, WriteAheadLog
from repro.engine.stats import MatchStats
from repro.errors import (
    DurabilityError,
    EngineError,
    RecoveryError,
    ReproError,
    WorkingMemoryError,
)
from repro.wm.wme import WME, encode_rows

from tests.conftest import cs_state, make_codec_cases, wm_rows

PROGRAM = """
(literalize player name team score)
(p promote
  (player ^name <n> ^team A ^score 10)
  -->
  (modify 1 ^team B)
  (write promoted <n>))
"""


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def _player(tag, name, team, score=10):
    return WME("player", {"name": name, "team": team, "score": score}, tag)


def _delta(next_tag, *events):
    """A ``d`` frame of *events*, ``(sign, wme)`` pairs, written
    through the row codec as the durability manager writes it."""
    shapes, rows = encode_rows(events, signed=True)
    return {"k": "d", "n": next_tag, "s": shapes, "e": rows}


def _meta(version=FORMAT_VERSION):
    return {"k": "m", "v": version, "matcher": "rete", "strategy": "lex"}


def _workload(wal_dir, fsync="off", **kwargs):
    engine = RuleEngine(
        durability=DurabilityConfig(wal_dir, fsync=fsync), **kwargs
    )
    engine.load(PROGRAM)
    with engine.batch():
        for i in range(6):
            engine.make(
                "player", name=f"p{i}", team="A",
                score=10 if i % 2 == 0 else 1,
            )
    engine.run()
    return engine


class TestBasicRecovery:
    def test_no_checkpoint_full_replay(self, tmp_path):
        engine = _workload(tmp_path)  # crash: never closed
        recovered = RuleEngine.recover(tmp_path)
        assert wm_state(recovered) == wm_state(engine)
        assert cs_state(recovered) == cs_state(engine)
        assert set(recovered.rules) == set(engine.rules)
        assert recovered.recovery_report.checkpoint_path is None

    def test_refraction_survives(self, tmp_path):
        engine = _workload(tmp_path)
        recovered = RuleEngine.recover(tmp_path)
        # Everything already fired; recovery must not re-fire it.
        assert recovered.run() == 0
        assert recovered.output == []
        del engine

    def test_time_tag_counter_survives(self, tmp_path):
        engine = _workload(tmp_path)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        fresh = recovered.make("player", name="new", team="C", score=0)
        assert fresh.time_tag == engine.wm.latest_time_tag + 1

    def test_checkpoint_plus_tail(self, tmp_path):
        engine = _workload(tmp_path)
        engine.checkpoint()
        engine.make("player", name="late", team="A", score=10)
        recovered = RuleEngine.recover(tmp_path)
        assert wm_state(recovered) == wm_state(engine)
        assert cs_state(recovered) == cs_state(engine)
        report = recovered.recovery_report
        assert report.checkpoint_path is not None
        assert report.replayed_deltas == 1
        # The tail firing is still pending on both.
        engine.tracer.output.clear()
        assert engine.run() == recovered.run() == 1
        assert engine.output == recovered.output == ["promoted late"]

    def test_checkpoint_truncates_wal(self, tmp_path):
        from repro.durability.wal import list_segments

        engine = RuleEngine(
            durability=DurabilityConfig(
                tmp_path, fsync="off", segment_bytes=256
            )
        )
        engine.load(PROGRAM)
        for i in range(30):
            engine.make("player", name=f"p{i}", team="C", score=i)
        before = len(list_segments(tmp_path))
        assert before > 1
        engine.checkpoint()
        after = len(list_segments(tmp_path))
        assert after == 1
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert wm_state(recovered) == wm_state(engine)

    def test_recovered_engine_resumes_logging(self, tmp_path):
        engine = _workload(tmp_path)
        recovered = RuleEngine.recover(tmp_path)
        recovered.make("player", name="after", team="C", score=0)
        recovered.close()
        second = RuleEngine.recover(tmp_path, durability=False)
        assert wm_state(second) == wm_state(recovered)
        del engine

    @pytest.mark.parametrize("torn", [False, True])
    def test_resume_decodes_the_final_segment_once(self, tmp_path,
                                                   monkeypatch, torn):
        from repro.durability import wal

        engine = _workload(tmp_path)
        if torn:
            engine.make("player", name="torn", team="C", score=0)
            tear_tail(tmp_path, keep=0.4)
        scans = []
        scan_segment = wal.scan_segment
        monkeypatch.setattr(
            wal, "scan_segment",
            lambda *args: scans.append(args) or scan_segment(*args),
        )
        recovered = RuleEngine.recover(tmp_path)
        assert len(scans) == 1  # read_log_tail's; the append side reuses it
        assert recovered.recovery_report.tail_damaged == torn
        recovered.make("player", name="after", team="C", score=0)
        recovered.close()
        second = RuleEngine.recover(tmp_path, durability=False)
        assert not second.recovery_report.tail_damaged
        assert wm_state(second) == wm_state(recovered)

    def test_replayed_deltas_counter(self, tmp_path):
        _workload(tmp_path)
        stats = MatchStats()
        recovered = RuleEngine.recover(
            tmp_path, stats=stats, durability=False
        )
        assert stats.counters["replayed_deltas"] == (
            recovered.recovery_report.replayed_deltas
        )
        assert stats.counters["replayed_deltas"] > 0

    def test_replay_signs_one_candidate_per_fired_record(self, tmp_path,
                                                         monkeypatch):
        from repro.durability import manager

        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        engine.load("""
        (literalize item n)
        (p note (item ^n <n>) --> (write noted <n>))
        (p tally { [item] <S> } --> (write items (count <S>)))
        """)
        with engine.batch():
            for n in range(20):
                engine.make("item", n=n)
        fired = engine.run()
        signed = []
        sign = manager.fired_signature
        monkeypatch.setattr(
            manager, "fired_signature",
            lambda instantiation: signed.append(1) or sign(instantiation),
        )
        recovered = RuleEngine.recover(tmp_path, durability=False)
        # Twenty 'note' candidates are live at every 'note' record; only
        # the one whose head tags match is signed.
        assert recovered.recovery_report.replayed_firings == fired == 21
        assert len(signed) == fired
        monkeypatch.undo()
        assert cs_state(recovered) == cs_state(engine)

    def test_program_override(self, tmp_path):
        _workload(tmp_path)
        override = PROGRAM + """
        (p extra (player ^team B) --> (write b-seen))
        """
        recovered = RuleEngine.recover(
            tmp_path, program=override, durability=False
        )
        assert set(recovered.rules) == {"promote", "extra"}
        assert recovered.run() > 0  # the new rule fires on old WMEs

    def test_excise_is_replayed(self, tmp_path):
        engine = _workload(tmp_path)
        engine.excise("promote")
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert recovered.rules == {}
        del engine

    def test_strategy_and_matcher_from_checkpoint(self, tmp_path):
        from repro.match import NaiveMatcher

        engine = RuleEngine(
            matcher=NaiveMatcher(),
            strategy="mea",
            durability=DurabilityConfig(tmp_path, fsync="off"),
        )
        engine.load(PROGRAM)
        engine.make("player", name="a", team="A", score=10)
        engine.checkpoint()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert type(recovered.matcher) is NaiveMatcher
        assert recovered.strategy.name == "mea"

    def test_dips_checkpoint_needs_no_rdb_snapshot(self, tmp_path):
        import os

        from repro.dips import DipsMatcher

        engine = RuleEngine(
            matcher=DipsMatcher(),
            durability=DurabilityConfig(tmp_path, fsync="off"),
        )
        engine.load(PROGRAM)
        engine.make("player", name="a", team="A", score=10)
        path = engine.checkpoint()
        # The COND tables are derived state rebuilt by replay; the
        # checkpoint holds no second (potentially disagreeing) copy.
        assert not os.path.exists(os.path.join(path, "rdb.json"))
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert type(recovered.matcher) is DipsMatcher
        assert wm_state(recovered) == wm_state(engine)
        assert cs_state(recovered) == cs_state(engine)


TALLY = """
(literalize item n)
(p tally { [item] <S> } --> (write items (count <S>)))
"""


class TestWidenedFact:
    """A fact made before its class was declared keeps the attributes
    the declaration lacks through a modify; recovery brings it back
    from the log and from a checkpoint alike."""

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_modify_after_literalize_recovers(self, checkpoint, tmp_path):
        engine = RuleEngine(durability=DurabilityConfig(tmp_path))
        sue = engine.make("player", name="Sue", salary=3)
        engine.literalize("player", "name", "team")
        engine.make("player", name="Ann", team="y")
        engine.modify(sue, team="x")
        if checkpoint:
            engine.checkpoint()
        before = wm_state(engine)
        engine.close()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert wm_state(recovered) == before
        with pytest.raises(WorkingMemoryError, match=r"\^salary"):
            recovered.make("player", name="Bo", salary=3)


class TestRowCodecReplay:
    """Delta frames are written by the row codec, so the facts a
    snapshot and a batch line must carry unchanged replay unchanged."""

    def test_codec_cases_replay(self, tmp_path):
        from repro.durability.wal import read_log_tail

        engine = RuleEngine(durability=DurabilityConfig(tmp_path))
        ann = make_codec_cases(engine)[1][1]
        # A keyed assert with a removal in its batch: the key rides in
        # that batch's frame, and only its ``+`` rows are ingested.
        engine.durability.pending_request_key = "k1"
        with engine.batch():
            engine.make("reading", n=-1, value=0.5)
            engine.make("reading", value=1.5, n=-2)
            engine.remove(ann)
        before = wm_rows(engine)
        engine.close()
        payloads, _, _ = read_log_tail(tmp_path)
        [keyed] = [p for p in payloads if "q" in p]
        assert [row[:2] for row in keyed["e"]] == [
            ["+", 0], ["+", 1], ["-", 2],
        ]
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert wm_rows(recovered) == before
        assert recovered.request_journal["k1"]["ingested"] == 2
        with pytest.raises(WorkingMemoryError, match=r"\^salary"):
            recovered.make("player", name="Bo", salary=3)


class TestRefractionStamps:
    def test_swapped_ce_instantiations_recover_apart(self, tmp_path):
        # (1 2) and (2 1) match the same WMEs in swapped CEs and share a
        # recency key; each must stamp only itself on replay.
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        engine.load("""
        (literalize a x)
        (p pair (a ^x <v>) (a ^x <w>) --> (write pair <v> <w>))
        """)
        engine.make("a", x=1)
        engine.make("a", x=2)
        assert engine.run(limit=3) == 3
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert cs_state(recovered) == cs_state(engine)
        engine.tracer.output.clear()
        recovered.tracer.output.clear()
        engine.run()
        recovered.run()
        assert recovered.output == engine.output == ["pair 1 1"]

    def test_soi_stamp_is_count_digest_and_head(self, tmp_path):
        from repro.durability.manager import fired_signature
        from repro.durability.wal import read_log_tail

        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        engine.load(TALLY)
        with engine.batch():
            for n in range(50):
                engine.make("item", n=n)
        engine.run()
        soi = engine.conflict_set.of_rule("tally")[0]
        stamp = fired_signature(soi)
        assert stamp == [50, soi.soi.digest, [50]]
        payloads, _, _ = read_log_tail(str(tmp_path))
        fired = [p for p in payloads if p["k"] == "f"]
        assert fired == [{"k": "f", "r": "tally", "s": 1, "t": stamp}]

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["log", "manifest"])
    def test_override_narrowing_a_set_ce_is_refused(self, tmp_path,
                                                    checkpoint):
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        engine.load(TALLY)
        with engine.batch():
            for n in range(5):
                engine.make("item", n=n)
        assert engine.run() == 1
        if checkpoint:
            engine.checkpoint()
        engine.close()
        # The head (n 4) still matches; count and digest do not.
        narrowed = TALLY.replace("[item]", "[item ^n > 1]")
        with pytest.raises(RecoveryError, match="conflict set"):
            RuleEngine.recover(tmp_path, program=narrowed,
                               durability=False)

    def test_older_manifest_is_refused(self, tmp_path):
        import json
        import os

        engine = _workload(tmp_path)
        path = engine.checkpoint()
        engine.close()
        manifest_path = os.path.join(path, "MANIFEST.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["version"] = 2
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RecoveryError,
                           match="manifest version 2; this build reads "
                                 "version 3 only"):
            RuleEngine.recover(tmp_path, durability=False)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_digest_ignores_arrival_order(self, data):
        from repro.core.instantiation import MatchToken
        from repro.rete.snode import SetOrientedInstance
        from repro.wm.wme import WME

        def token(tags):
            return MatchToken(WME("a", {}, tag) for tag in tags)

        pairs = st.tuples(st.integers(1, 9), st.integers(1, 9))
        members = data.draw(st.sets(pairs, min_size=1, max_size=12))
        transient = data.draw(st.sets(pairs, max_size=8))
        # One stream of inserts, each transient token's removal drawn
        # somewhere after its insert.
        ops = data.draw(st.permutations(
            [("+", tags, False) for tags in members]
            + [("+", tags, True) for tags in transient]
        ))
        for tags in transient:
            after = next(i for i, op in enumerate(ops)
                         if op[1] == tags and op[2])
            at = data.draw(st.integers(after + 1, len(ops)))
            ops.insert(at, ("-", tags, True))

        def build(stream):
            soi = SetOrientedInstance((), {}, {}, [])
            live = {}
            for sign, tags, extra in stream:
                if sign == "+":
                    live[tags, extra] = token(tags)
                    soi.insert_token(live[tags, extra])
                else:
                    soi.remove_token(live.pop((tags, extra)))
            return soi

        shuffled = build(ops)
        ordered = build(("+", tags, False) for tags in sorted(members))
        assert len(shuffled) == len(ordered) == len(members)
        assert shuffled.digest == ordered.digest


class TestDamageHandling:
    def test_torn_tail_loses_only_unflushed_tail(self, tmp_path):
        engine = _workload(tmp_path)
        before = wm_state(engine)
        engine.make("player", name="torn", team="C", score=0)
        tear_tail(tmp_path, keep=0.4)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert recovered.recovery_report.tail_damaged
        assert wm_state(recovered) == before  # only the tail was lost

    def test_corrupt_middle_raises_typed_error(self, tmp_path):
        _workload(tmp_path)
        corrupt_record(tmp_path, index=2)
        with pytest.raises(RecoveryError):
            RuleEngine.recover(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RecoveryError, match="no write-ahead log"):
            RuleEngine.recover(tmp_path / "nothing")

    def test_fire_record_without_match_is_refused(self, tmp_path):
        # A log whose firing record names tags that never existed: the
        # log and the rule base disagree, which recovery must surface.
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "l", "c": "player",
                    "a": ["name", "team", "score"]})
        wal.append({"k": "p",
                    "src": "(p promote (player ^team A) --> (halt))"})
        wal.append(_delta(2, ("+", _player(1, "a", "A"))))
        wal.append({"k": "f", "r": "promote", "s": 0, "t": [99]})
        wal.append({"k": "e"})  # terminated: a *completed* bogus firing
        wal.close()
        with pytest.raises(RecoveryError, match="conflict set"):
            RuleEngine.recover(tmp_path, durability=False)

    @pytest.mark.parametrize("record, error, message", [
        ({"k": "zz"}, RecoveryError, "unknown WAL record"),
        # A session-meta record naming a matcher the registry no longer
        # has (logs written while a sharded Rete matcher existed).
        ({**_meta(), "matcher": "sharded"},
         ReproError,
         r"unknown matcher 'sharded' "
         r"\(expected one of rete, naive, dips\)"),
        # A log written while the TREAT matcher existed: the same typed
        # error (TestRemovedMatcher recovers such a log by naming one).
        ({**_meta(), "matcher": "treat"},
         ReproError,
         r"unknown matcher 'treat' \(expected one of rete, naive, dips\)"),
        # A log written before the meta record named its format: its
        # stamps list every SOI member, which no decoder reads now.
        ({"k": "m", "matcher": "rete", "strategy": "lex"}, RecoveryError,
         rf"is format version 1; this build reads version "
         rf"{FORMAT_VERSION} only"),
    ], ids=["unknown-kind", "removed-matcher", "removed-matcher-treat",
            "format-v1"])
    def test_unreadable_record_is_refused(self, tmp_path, record, error,
                                          message):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(record)
        wal.close()
        with pytest.raises(error, match=message):
            RuleEngine.recover(tmp_path, durability=False)

    def test_format_v2_log_is_refused(self, tmp_path):
        # Version 2 wrote a delta as one attribute dict per event; no
        # decoder reads that layout now.
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_meta(2))
        wal.append({"k": "d", "n": 2, "e": [
            ["+", "player", 1, {"name": "a", "team": "A", "score": 10}],
        ]})
        wal.close()
        with pytest.raises(
            RecoveryError,
            match=rf"is format version 2; this build reads version "
                  rf"{FORMAT_VERSION} only",
        ):
            RuleEngine.recover(tmp_path, durability=False)

    def test_v2_delta_past_a_checkpoint_is_refused(self, tmp_path):
        # The tail past a checkpoint holds no ``m`` frame to name its
        # version; an older build's delta frame is still refused,
        # typed, rather than misread.
        engine = _workload(tmp_path)
        engine.checkpoint()
        engine.close()
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "d", "n": 99, "e": [
            ["+", "player", 98, {"name": "z", "team": "A", "score": 1}],
        ]})
        wal.close()
        with pytest.raises(RecoveryError, match="no shape table"):
            RuleEngine.recover(tmp_path, durability=False)


class TestRemovedMatcher:
    """A log's contents do not depend on the matcher, so a log or
    checkpoint that names the removed ``treat`` matcher is refused with
    the registry's typed error, and recovers once the caller names a
    matcher that exists."""

    @pytest.mark.parametrize("matcher", ["naive", "rete"])
    def test_treat_log_recovers_with_an_explicit_matcher(self, tmp_path,
                                                         matcher):
        from repro.durability.wal import WriteAheadLog, read_log_tail

        engine = _workload(tmp_path / "live", matcher="naive")
        payloads, _, _ = read_log_tail(tmp_path / "live", None)
        assert payloads[0]["k"] == "m"
        wal = WriteAheadLog(tmp_path / "treat", fsync="off")
        for payload in payloads:
            if payload["k"] == "m":
                payload = dict(payload, matcher="treat")
            wal.append(payload)
        wal.close()
        with pytest.raises(ReproError, match="unknown matcher 'treat'"):
            RuleEngine.recover(tmp_path / "treat", durability=False)
        recovered = RuleEngine.recover(tmp_path / "treat", matcher=matcher,
                                       durability=False)
        assert wm_state(recovered) == wm_state(engine)
        assert cs_state(recovered) == cs_state(engine)
        assert recovered.run() == 0  # refraction replayed too

    def test_treat_manifest_recovers_with_an_explicit_matcher(self,
                                                              tmp_path):
        import json
        import os

        engine = _workload(tmp_path, matcher="naive")
        path = engine.checkpoint()
        manifest_path = os.path.join(path, "MANIFEST.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["matcher"] == "naive"
        manifest["matcher"] = "treat"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ReproError, match="unknown matcher 'treat'"):
            RuleEngine.recover(tmp_path, durability=False)
        recovered = RuleEngine.recover(tmp_path, matcher="naive",
                                       durability=False)
        assert wm_state(recovered) == wm_state(engine)
        assert cs_state(recovered) == cs_state(engine)


class TestInjectedCrashes:
    @pytest.mark.parametrize("point", [
        "checkpoint.begin",
        "checkpoint.files",
        "checkpoint.rename",
        "checkpoint.current",
        "checkpoint.truncate",
    ])
    def test_crash_during_checkpoint_is_recoverable(self, tmp_path, point):
        fault = FaultInjector(crash_at={point: 1})
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off", fault=fault)
        )
        engine.load(PROGRAM)
        engine.make("player", name="a", team="A", score=10)
        engine.run()
        expected_wm = wm_state(engine)
        expected_cs = cs_state(engine)
        with pytest.raises(SimulatedCrash):
            engine.checkpoint()
        # Whatever the crash left behind, recovery rebuilds the exact
        # pre-checkpoint state: nothing was lost, nothing doubled.
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert wm_state(recovered) == expected_wm
        assert cs_state(recovered) == expected_cs

    def test_crash_during_append_loses_only_that_record(self, tmp_path):
        fault = FaultInjector(torn_append=(6, 0.3))
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off", fault=fault)
        )
        engine.load(PROGRAM)  # records 2-3: literalize + rule (1: meta)
        engine.make("player", name="a", team="C", score=1)  # record 4
        engine.make("player", name="b", team="C", score=2)  # record 5
        before = wm_state(engine)
        with pytest.raises(SimulatedCrash):
            engine.make("player", name="c", team="C", score=3)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert recovered.recovery_report.tail_damaged
        assert wm_state(recovered) == before


class TestIncompleteFiring:
    def test_crash_mid_firing_rolls_the_firing_back(self, tmp_path):
        # Appends: 1 meta, 2 literalize, 3 rule, 4 make, 5 'f' stamp,
        # 6 the modify's remove delta — torn.  The log ends with a
        # refraction stamp whose effects never became durable.
        fault = FaultInjector(torn_append=(6, 0.3))
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off", fault=fault)
        )
        engine.load(PROGRAM)
        engine.make("player", name="a", team="A", score=10)
        with pytest.raises(SimulatedCrash):
            engine.run()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        report = recovered.recovery_report
        assert report.tail_damaged
        assert report.dropped_records == 1  # the orphaned 'f' stamp
        assert report.replayed_firings == 0
        # The firing was rolled back wholesale: the instantiation is
        # eligible again, and refiring converges to the same end state
        # as an uninterrupted run.
        assert recovered.run() == 1
        assert recovered.output == ["promoted a"]
        baseline = _workload(tmp_path / "baseline")
        [(tag, _, values)] = wm_state(recovered)
        assert dict(values)["team"] == "B"
        del baseline

    def test_rollback_truncates_log_for_the_next_recovery(self, tmp_path):
        fault = FaultInjector(torn_append=(6, 0.3))
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off", fault=fault)
        )
        engine.load(PROGRAM)
        engine.make("player", name="a", team="A", score=10)
        with pytest.raises(SimulatedCrash):
            engine.run()
        # Resume logging: the rolled-back firing must be cut from the
        # file, or a second recovery would see its stamp mid-log.
        first = RuleEngine.recover(tmp_path)
        state = wm_state(first)
        cs = cs_state(first)
        first.close()
        second = RuleEngine.recover(tmp_path, durability=False)
        assert second.recovery_report.dropped_records == 0
        assert wm_state(second) == state
        assert cs_state(second) == cs

    def test_only_the_unterminated_firing_is_dropped(self, tmp_path):
        # One completed firing (f…e), then an orphaned stamp with a
        # trailing delta: only the open transaction rolls back.
        a, b = _player(1, "a", "A"), _player(3, "b", "A")
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "l", "c": "player",
                    "a": ["name", "team", "score"]})
        wal.append({"k": "p", "src":
                    "(p promote (player ^name <n> ^team A ^score 10) "
                    "--> (modify 1 ^team B) (write promoted <n>))"})
        wal.append(_delta(2, ("+", a)))
        wal.append({"k": "f", "r": "promote", "s": 0, "t": [1]})
        wal.append(_delta(2, ("-", a)))
        wal.append(_delta(3, ("+", _player(2, "a", "B"))))
        wal.append({"k": "e"})
        wal.append(_delta(4, ("+", b)))
        wal.append({"k": "f", "r": "promote", "s": 0, "t": [3]})
        wal.append(_delta(4, ("-", b)))
        wal.close()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        report = recovered.recovery_report
        assert report.dropped_records == 2  # the stamp and its delta
        assert report.replayed_firings == 1
        tags = [tag for tag, _, _ in wm_state(recovered)]
        assert tags == [2, 3]  # b's make survived, its removal didn't
        # b is eligible (its firing rolled back); a stays refracted.
        assert recovered.run() == 1
        assert recovered.output == ["promoted b"]


class TestEngineGuards:
    def test_checkpoint_requires_durability(self):
        engine = RuleEngine()
        with pytest.raises(EngineError, match="durability"):
            engine.checkpoint()

    def test_checkpoint_inside_batch_refused(self, tmp_path):
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        with engine.batch():
            with pytest.raises(DurabilityError, match="batch"):
                engine.checkpoint()
        engine.close()

    def test_fresh_engine_refuses_used_directory(self, tmp_path):
        engine = _workload(tmp_path)
        engine.close()
        # A fresh engine would restart time tags at 1 and interleave
        # two sessions in one log; only recover() may reuse the dir.
        with pytest.raises(DurabilityError, match="previous session"):
            RuleEngine(durability=DurabilityConfig(tmp_path, fsync="off"))
        recovered = RuleEngine.recover(tmp_path)  # the sanctioned path
        recovered.close()

    def test_used_directory_guard_names_labelled_owner(self, tmp_path):
        engine = _workload(tmp_path)
        engine.close()
        # The service layer labels each config with its tenant's
        # session id, so the operator-facing error says whose WAL
        # directory collided, not just which path.
        with pytest.raises(DurabilityError, match="tenant-42"):
            RuleEngine(durability=DurabilityConfig(
                tmp_path, fsync="off", label="tenant-42"
            ))

    def test_unlabelled_guard_has_no_owner_clause(self, tmp_path):
        engine = _workload(tmp_path)
        engine.close()
        with pytest.raises(DurabilityError) as info:
            RuleEngine(durability=DurabilityConfig(tmp_path, fsync="off"))
        assert "(session" not in str(info.value)

    def test_close_is_idempotent(self, tmp_path):
        engine = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        engine.close()
        engine.close()
        assert engine.durability is None
