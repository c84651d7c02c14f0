"""Unit tests for the segmented, CRC32-framed write-ahead log."""

import errno
import os

import pytest

from repro.durability.faultfs import FaultInjector, SimulatedCrash
from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    FORMAT_VERSION,
    HEADER,
    MAGIC,
    WriteAheadLog,
    encode_record,
    list_segments,
    read_log_tail,
    scan_segment,
    segment_name,
    truncate_after,
)
from repro.engine.stats import MatchStats
from repro.errors import AppendRefused, RecoveryError, WalError


def _payloads(n, size=0):
    pad = "x" * size
    return [{"k": "d", "i": i, "pad": pad} for i in range(n)]


#: One payload of every frame kind the engine writes, with the awkward
#: values a log carries: non-ASCII text, floats, nested lists.
FRAME_KINDS = [
    {"k": "d", "n": 4, "s": [["reading", ["sensor", "value"]]], "e": [
        ["+", 0, 3, "s\u00e9", 2.5],
        ["-", 0, 1, "s\u00e9", -1.0],
    ], "q": "req-\u2603"},
    {"k": "f", "r": "tally", "s": 1, "t": [2000, 2 ** 64 - 1, [2000]]},
    {"k": "e"},
    {"k": "a", "o": "skip", "r": "bad", "c": 3, "n": 2, "i": [0, 1],
     "err": "ZeroDivisionError: division by zero"},
    {"k": "j", "key": "k1", "resp": {"fired": 2, "out": ["caf\u00e9"]}},
    {"k": "m", "v": FORMAT_VERSION, "matcher": "rete", "strategy": "lex"},
    {"k": "l", "c": "reading", "a": ["sensor", "value"]},
    {"k": "p", "src": "(p r (a ^x <x>) --> (write \"<x>\"))"},
]


class TestFraming:
    @pytest.mark.parametrize("payload", FRAME_KINDS,
                             ids=[p["k"] for p in FRAME_KINDS])
    def test_encoding_matches_json_dumps(self, payload):
        import json
        import zlib

        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert encode_record(payload) == HEADER.pack(
            MAGIC, len(data), zlib.crc32(data)
        ) + data

    def test_encode_scan_round_trip(self):
        records = _payloads(5)
        data = b"".join(encode_record(p) for p in records)
        payloads, end, damage = scan_segment(data)
        assert payloads == records
        assert end == len(data)
        assert damage is None

    def test_scan_from_offset(self):
        records = _payloads(3)
        frames = [encode_record(p) for p in records]
        data = b"".join(frames)
        payloads, end, damage = scan_segment(data, start=len(frames[0]))
        assert payloads == records[1:]
        assert damage is None

    def test_torn_final_frame_is_tail_damage(self):
        data = b"".join(encode_record(p) for p in _payloads(2))
        payloads, end, damage = scan_segment(data[:-3])
        assert len(payloads) == 1
        assert damage is not None
        assert damage.reason == "torn"
        assert not damage.trailing

    def test_flipped_bit_in_final_record(self):
        data = bytearray(b"".join(encode_record(p) for p in _payloads(2)))
        data[-1] ^= 0x01
        payloads, end, damage = scan_segment(bytes(data))
        assert len(payloads) == 1
        assert damage.reason == "crc"
        assert not damage.trailing

    def test_flipped_bit_mid_log_leaves_trailing_evidence(self):
        frames = [encode_record(p) for p in _payloads(3, size=8)]
        data = bytearray(b"".join(frames))
        data[len(frames[0]) + 12] ^= 0x01  # payload byte of record 2
        payloads, end, damage = scan_segment(bytes(data))
        assert len(payloads) == 1
        assert damage.trailing  # MAGIC of record 3 follows the damage

    def test_implausible_length_is_frame_damage(self):
        import struct

        bogus = MAGIC + struct.pack("<II", 1 << 30, 0)
        payloads, end, damage = scan_segment(bogus)
        assert payloads == []
        assert damage.reason == "frame"

    def test_fake_magic_in_torn_tail_is_not_trailing_evidence(self):
        # The magic sequence appearing in garbage (or in payload
        # bytes — 0xAB is a valid UTF-8 continuation byte) is not
        # proof of durable records after the damage: only a candidate
        # that parses and passes its CRC may escalate a tolerable torn
        # tail to silent corruption.
        frame = encode_record({"k": "d", "i": 1})
        data = frame + b"garbage" + MAGIC + b"more-garbage"
        payloads, end, damage = scan_segment(data)
        assert len(payloads) == 1
        assert damage is not None
        assert not damage.trailing

    def test_valid_frame_after_damage_is_trailing_evidence(self):
        frame = encode_record({"k": "d", "i": 1})
        tail = encode_record({"k": "d", "i": 2})
        payloads, end, damage = scan_segment(frame + b"junk" + tail)
        assert len(payloads) == 1
        assert damage.trailing


class TestAppend:
    def test_round_trip_with_positions(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        positions = [wal.append(p) for p in _payloads(4)]
        assert positions[-1] == wal.tell()
        wal.close()
        payloads, end, damage = read_log_tail(tmp_path)
        assert payloads == _payloads(4)
        assert end == positions[-1]
        assert damage is None

    def test_segment_rollover(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=120)
        for p in _payloads(8, size=40):
            wal.append(p)
        wal.close()
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        assert [seq for seq, _ in segments] == list(
            range(1, len(segments) + 1)
        )
        payloads, _, _ = read_log_tail(tmp_path)
        assert payloads == _payloads(8, size=40)

    def test_reopen_resumes_after_clean_close(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "d", "i": 1})
        wal.close()
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "d", "i": 2})
        wal.close()
        payloads, _, _ = read_log_tail(tmp_path)
        assert [p["i"] for p in payloads] == [1, 2]

    @pytest.mark.parametrize("handed_over", [False, True])
    def test_reopen_truncates_torn_tail(self, tmp_path, monkeypatch,
                                        handed_over):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "d", "i": 1})
        wal.append({"k": "d", "i": 2})
        wal.close()
        path = list_segments(tmp_path)[-1][1]
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        if handed_over:
            # Recovery already validated the end: no second decode.
            _, tail, _ = read_log_tail(tmp_path)
            with monkeypatch.context() as patch:
                patch.delattr("repro.durability.wal.scan_segment")
                wal = WriteAheadLog(tmp_path, fsync="off", tail=tail)
        else:
            wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"k": "d", "i": 3})
        wal.close()
        payloads, _, damage = read_log_tail(tmp_path)
        assert [p["i"] for p in payloads] == [1, 3]
        assert damage is None  # the torn bytes were cut at reopen

    def test_reopen_refuses_corruption_before_valid_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_payloads(1, size=8)[0])
        wal.append(_payloads(1, size=8)[0])
        wal.close()
        path = list_segments(tmp_path)[-1][1]
        with open(path, "r+b") as handle:
            handle.seek(14)  # payload byte of the first record
            byte = handle.read(1)[0]
            handle.seek(14)
            handle.write(bytes([byte ^ 0x01]))
        with pytest.raises(WalError, match="corrupt"):
            WriteAheadLog(tmp_path, fsync="off")

    def test_append_after_close_fails(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append({"k": "d"})

    @pytest.mark.parametrize("fsync, point", [
        ("off", "wal.append.before"),
        # The frame is written, its policy fsync fails: it is cut back.
        ("always", "wal.fsync"),
        ("batch", "wal.fsync"),
    ])
    def test_a_failed_append_is_refused_whole(self, tmp_path, fsync, point):
        fault = FaultInjector(error_at={point: 2})
        wal = WriteAheadLog(tmp_path, fsync=fsync, fault=fault)
        wal.append({"k": "d", "i": 1}, batch=True)
        end = wal.tell()
        with pytest.raises(AppendRefused, match=f"injected at {point}") as info:
            wal.append({"k": "d", "i": 2}, batch=True)
        assert info.value.errno == errno.ENOSPC
        assert wal.tell() == end and wal.records == 1
        assert os.path.getsize(list_segments(tmp_path)[-1][1]) == end[1]
        wal.append({"k": "d", "i": 3}, batch=True)
        wal.close()
        payloads, _, damage = read_log_tail(tmp_path)
        assert [p["i"] for p in payloads] == [1, 3] and damage is None

    def test_a_failed_append_it_cannot_cut_back_closes_the_log(
            self, tmp_path, monkeypatch):
        def refuse(fd, length):
            raise OSError(errno.EIO, "cannot truncate")

        fault = FaultInjector(error_at={"wal.fsync": 1})
        wal = WriteAheadLog(tmp_path, fsync="always", fault=fault)
        monkeypatch.setattr("repro.durability.wal.os.ftruncate", refuse)
        with pytest.raises(OSError, match="injected") as info:
            wal.append({"k": "d"})
        # The frame may be in the log: not a refusal, and no more
        # appends after it.
        assert not isinstance(info.value, AppendRefused)
        with pytest.raises(AppendRefused, match="closed"):
            wal.append({"k": "d"})

    def test_bad_policy_and_segment_size(self, tmp_path):
        with pytest.raises(WalError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")
        with pytest.raises(WalError, match="positive"):
            WriteAheadLog(tmp_path, segment_bytes=0)

    def test_truncate_before_drops_old_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=80)
        for p in _payloads(10, size=40):
            wal.append(p)
        seq, _ = wal.tell()
        assert seq > 2
        removed = wal.truncate_before(seq)
        assert removed == seq - 1
        assert [s for s, _ in list_segments(tmp_path)] == [seq]
        wal.close()


class TestFsyncPolicies:
    def _fsyncs(self, tmp_path, policy, batches, **options):
        """fsyncs over *batches* plus the close; a nested list is the
        appends of one ``commit_scope()``."""
        stats = MatchStats()
        wal = WriteAheadLog(tmp_path, fsync=policy, stats=stats, **options)

        def append(batches):
            for batch in batches:
                if isinstance(batch, list):
                    with wal.commit_scope():
                        append(batch)
                else:
                    wal.append({"k": "d", "pad": "x" * 40}, batch=batch)

        append(batches)
        wal.close()
        assert wal.records == stats.counters.get("wal_appends", 0)
        assert wal.fsyncs == stats.counters.get("wal_fsyncs", 0)
        return wal.fsyncs

    @pytest.mark.parametrize("policy, batches, expected", [
        # one sync for the scope + the close
        ("batch", [[True, True, True, True]], 2),
        ("batch", [[True, False, False]], 2),
        # a scope of non-batch records only (f … e, j) is synced too
        ("batch", [[False, False]], 2),
        # nested scopes: only the outermost exit syncs
        ("batch", [[True, [True, [True]], True]], 2),
        # an empty scope syncs nothing
        ("batch", [[], [[]]], 1),
        # one sync per scope; a batch record outside any syncs as before
        ("batch", [[True, True], True, [True]], 4),
        # the other two policies do not defer
        ("always", [[True, False, False]], 4),
        ("off", [[True, False], True], 0),
    ])
    def test_commit_scope(self, tmp_path, policy, batches, expected):
        assert self._fsyncs(tmp_path, policy, batches) == expected

    def test_rollover_inside_a_scope_syncs_the_outgoing_segment(
            self, tmp_path):
        # Each record fills a segment: 3 rollovers synced at once,
        # then one scope sync for the last segment, then the close.
        assert self._fsyncs(
            tmp_path, "batch", [[True] * 4], segment_bytes=80
        ) == 3 + 1 + 1
        assert len(list_segments(tmp_path)) == 4

    def test_scope_syncs_what_was_appended_on_an_exception(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch")
        with pytest.raises(KeyError):
            with wal.commit_scope():
                wal.append({"k": "d"}, batch=True)
                raise KeyError("the caller failed")
        assert wal.fsyncs == 1
        wal.close()

    def test_failed_scope_sync_raises_and_stays_owed(self, tmp_path):
        fault = FaultInjector(error_at={"wal.fsync": 1})
        wal = WriteAheadLog(tmp_path, fsync="batch", fault=fault)
        with pytest.raises(OSError, match="injected at wal.fsync"):
            with wal.commit_scope():
                wal.append({"k": "d"}, batch=True)
        assert wal.fsyncs == 0
        with wal.commit_scope():
            pass  # a retry that appends nothing still owes the sync
        assert wal.fsyncs == 1
        with wal.commit_scope():
            pass
        assert wal.fsyncs == 1
        wal.close()

    @pytest.mark.parametrize("crash", [
        {"crash_at": {"wal.append.before": 2}},
        {"torn_append": (2, 0.5)},
    ])
    def test_scope_exit_after_a_crash_syncs_nothing(self, tmp_path, crash):
        fault = FaultInjector(**crash)
        wal = WriteAheadLog(tmp_path, fsync="batch", fault=fault)
        with pytest.raises(SimulatedCrash):
            with wal.commit_scope():
                wal.append({"k": "d"}, batch=True)
                wal.append({"k": "d"}, batch=True)
        assert fault.crashed
        assert wal.fsyncs == 0
        assert "wal.fsync" not in fault.counts

    def test_crash_at_the_scope_sync_propagates(self, tmp_path):
        fault = FaultInjector(crash_at={"wal.fsync": 1})
        wal = WriteAheadLog(tmp_path, fsync="batch", fault=fault)
        with pytest.raises(SimulatedCrash):
            with wal.commit_scope():
                wal.append({"k": "d"}, batch=True)
        assert wal.fsyncs == 0
        payloads, _, damage = read_log_tail(tmp_path)
        assert len(payloads) == 1 and damage is None  # flushed, un-synced

    def test_always_fsyncs_every_record(self, tmp_path):
        # 4 appends + 1 close
        assert self._fsyncs(tmp_path, "always", [False] * 4) == 5

    def test_batch_fsyncs_batch_records_only(self, tmp_path):
        # 2 batch records + 1 close
        assert (
            self._fsyncs(tmp_path, "batch", [True, False, True, False])
            == 3
        )

    def test_off_never_fsyncs(self, tmp_path):
        assert self._fsyncs(tmp_path, "off", [True, False]) == 0

    def test_rollover_fsyncs_the_outgoing_segment(self, tmp_path):
        # A durable record in segment N+1 must imply all of segment N
        # is durable, even when no record in N was individually
        # fsynced — otherwise a power failure could damage a non-final
        # segment and recovery would refuse the whole log.
        stats = MatchStats()
        wal = WriteAheadLog(
            tmp_path, fsync="batch", segment_bytes=120, stats=stats
        )
        for p in _payloads(8, size=40):
            wal.append(p, batch=False)  # no per-record fsyncs
        rollovers = len(list_segments(tmp_path)) - 1
        assert rollovers > 0
        assert stats.counters["wal_fsyncs"] == rollovers
        wal.close()
        assert stats.counters["wal_fsyncs"] == rollovers + 1

    def test_rollover_never_fsyncs_under_off(self, tmp_path):
        stats = MatchStats()
        wal = WriteAheadLog(
            tmp_path, fsync="off", segment_bytes=120, stats=stats
        )
        for p in _payloads(8, size=40):
            wal.append(p)
        assert len(list_segments(tmp_path)) > 1
        wal.close()
        assert stats.counters.get("wal_fsyncs", 0) == 0

    def test_append_and_byte_counters(self, tmp_path):
        stats = MatchStats()
        wal = WriteAheadLog(tmp_path, fsync="off", stats=stats)
        wal.append({"k": "d"})
        wal.append({"k": "d"})
        wal.close()
        assert stats.counters["wal_appends"] == 2
        assert stats.counters["wal_bytes"] == 2 * len(
            encode_record({"k": "d"})
        )


class TestReadLogTail:
    def test_start_past_checkpoint(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"i": 1})
        mid = wal.append({"i": 2})
        wal.append({"i": 3})
        wal.close()
        payloads, _, _ = read_log_tail(tmp_path, start=mid)
        assert [p["i"] for p in payloads] == [3]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RecoveryError, match="no write-ahead log"):
            read_log_tail(tmp_path / "nope")

    def test_missing_start_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"i": 1})
        wal.close()
        with pytest.raises(RecoveryError, match="missing"):
            read_log_tail(tmp_path, start=(7, 0))

    def test_non_consecutive_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=60)
        for p in _payloads(6, size=30):
            wal.append(p)
        wal.close()
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        os.remove(segments[1][1])
        with pytest.raises(RecoveryError, match="not consecutive"):
            read_log_tail(tmp_path)

    def test_start_beyond_segment_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"i": 1})
        wal.close()
        with pytest.raises(RecoveryError, match="beyond"):
            read_log_tail(tmp_path, start=(1, 10_000))

    def test_damage_in_non_final_segment_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=60)
        for p in _payloads(6, size=30):
            wal.append(p)
        wal.close()
        first = list_segments(tmp_path)[0][1]
        with open(first, "r+b") as handle:
            handle.truncate(os.path.getsize(first) - 2)
        with pytest.raises(RecoveryError, match="corrupt"):
            read_log_tail(tmp_path)

    def test_defaults(self):
        assert DEFAULT_SEGMENT_BYTES == 1 << 20
        assert segment_name(3) == "00000003.wal"


class TestTruncateAfter:
    def test_cuts_within_a_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        for p in _payloads(5):
            wal.append(p)
        wal.close()
        cut = truncate_after(tmp_path, None, 3)
        payloads, end, damage = read_log_tail(tmp_path)
        assert payloads == _payloads(3)
        assert end == cut
        assert damage is None

    def test_cuts_across_segments_and_removes_later_ones(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=80)
        for p in _payloads(10, size=40):
            wal.append(p)
        wal.close()
        assert len(list_segments(tmp_path)) > 3
        truncate_after(tmp_path, None, 2)
        payloads, _, damage = read_log_tail(tmp_path)
        assert payloads == _payloads(2, size=40)
        assert damage is None

    def test_respects_the_start_position(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append({"i": 1})
        start = wal.append({"i": 2})
        wal.append({"i": 3})
        wal.append({"i": 4})
        wal.close()
        truncate_after(tmp_path, start, 1)
        payloads, _, _ = read_log_tail(tmp_path)
        assert [p["i"] for p in payloads] == [1, 2, 3]

    def test_nothing_to_cut_returns_none(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        for p in _payloads(2):
            wal.append(p)
        wal.close()
        assert truncate_after(tmp_path, None, 5) is None
        payloads, _, _ = read_log_tail(tmp_path)
        assert payloads == _payloads(2)

    def test_cut_also_drops_damaged_tail_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        for p in _payloads(3):
            wal.append(p)
        wal.close()
        path = list_segments(tmp_path)[-1][1]
        with open(path, "ab") as handle:
            handle.write(b"torn-tail-bytes")
        truncate_after(tmp_path, None, 2)
        payloads, _, damage = read_log_tail(tmp_path)
        assert payloads == _payloads(2)
        assert damage is None
