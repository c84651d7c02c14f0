"""The segmented, CRC32-framed write-ahead log.

On-disk format (version 2; full spec in ``docs/DURABILITY.md``):

* A log is a directory of **segment** files named ``%08d.wal`` with
  strictly consecutive sequence numbers; appends go to the
  highest-numbered segment and roll over to a fresh one when the
  current segment would exceed ``segment_bytes``.
* A segment is a sequence of **records**, each framed as::

      magic   4 bytes   b"\\xabWAL"
      length  4 bytes   little-endian uint32, payload byte count
      crc     4 bytes   little-endian uint32, zlib.crc32 of payload
      payload         length bytes of compact UTF-8 JSON

  The magic sequence is a cheap resynchronisation hint, not proof of
  a frame: payload bytes may coincide with it, so anything found at a
  magic hit must still validate (plausible header, CRC-valid payload)
  before it counts as a record.

* Payload kinds include ``{"k": "m", "v": 2, "matcher": ...,
  "strategy": ...}``, the session-meta record that opens every
  session's records and names the format version (recovery refuses
  any other); ``{"k": "d", "n": next_tag, "e": [[sign, class, tag,
  values], ...]}`` for a working-memory delta-set (one record per
  flushed batch, or per single event outside a batch); ``{"k": "f",
  "r": rule, "s": 0|1, "t": stamp}`` opening a firing whose RHS delta
  records follow, where the refraction stamp is a regular
  instantiation's time tags in CE order or an SOI's ``[count, digest,
  head tags]`` (:func:`repro.durability.manager.fired_signature`) —
  a few dozen bytes whatever the set's size; and ``{"k": "e"}``
  terminating that firing.  A log that ends inside an ``f``…``e``
  window holds an incomplete firing, which recovery rolls back
  wholesale (:mod:`repro.durability.recovery`).

Damage classification, shared by append-open and recovery:

* an **incomplete final frame** (bad magic, implausible length, or a
  frame extending past EOF) with no *valid* later record in the file
  is a *torn tail* — tolerated, the tail is dropped;
* a **CRC or JSON failure on the final complete frame** is a *damaged
  final record* — tolerated the same way;
* any damage **followed by a validated record** (a magic hit whose
  frame parses and passes its CRC), or any damage in a **non-final
  segment**, is silent corruption — a typed
  :class:`~repro.errors.RecoveryError` (or
  :class:`~repro.errors.WalError` when opening for append).

The fsync policy trades durability for throughput: ``always`` fsyncs
after every record; ``batch`` once per *commit unit* — a batch record
appended outside any :meth:`WriteAheadLog.commit_scope`, or everything
appended inside the outermost one (``RuleEngine.run()`` and a served
request each open one, so their ``d``/``f``/``e``/``j`` frames share
one fsync, issued after the last frame and before the caller is
answered) — and on sync points (checkpoint, segment rollover, close);
``off`` never fsyncs — data still reaches the OS on every append via
``flush``, so it survives a process crash, just not a power failure.
Under ``always`` and ``batch``, segment rollover fsyncs the outgoing
segment and then the directory entry of the new one, so a durable
record in segment N+1 implies all of segment N is durable.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
import zlib

from repro.engine.stats import NULL_STATS
from repro.errors import RecoveryError, WalError

#: The record format this build writes and reads, named by every ``m``
#: record (see :func:`repro.durability.recovery.recover_engine`).
FORMAT_VERSION = 2
MAGIC = b"\xabWAL"
HEADER = struct.Struct("<4sII")
SEGMENT_SUFFIX = ".wal"
#: Sanity bound on a single record; a length field above this is damage.
MAX_RECORD_BYTES = 64 * 1024 * 1024
DEFAULT_SEGMENT_BYTES = 1 << 20

FSYNC_POLICIES = ("always", "batch", "off")


def segment_name(seq):
    return f"{seq:08d}{SEGMENT_SUFFIX}"


def list_segments(directory):
    """Sorted ``(seq, path)`` pairs of the segments in *directory*."""
    pairs = []
    for name in os.listdir(directory):
        if name.endswith(SEGMENT_SUFFIX):
            stem = name[: -len(SEGMENT_SUFFIX)]
            if stem.isdigit():
                pairs.append((int(stem), os.path.join(directory, name)))
    return sorted(pairs)


def fsync_dir(path):
    """fsync a directory so entries for renamed/created files persist."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms where directories cannot be opened
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _Damage:
    """Where a segment scan stopped early, and whether data follows."""

    __slots__ = ("offset", "trailing", "reason")

    def __init__(self, offset, trailing, reason):
        self.offset = offset
        self.trailing = trailing
        self.reason = reason


def scan_segment(data, start=0):
    """Decode the frames of one segment from *start*.

    Returns ``(payloads, end_offset, damage)`` where *damage* is None
    for a clean scan or a :class:`_Damage` describing the first bad
    frame.  ``trailing`` is True when the magic sequence appears after
    the bad frame — evidence that valid records follow the damage.
    """
    payloads = []
    offset = start
    while offset < len(data):
        if offset + HEADER.size > len(data):
            return payloads, offset, _damage(data, offset, None, "torn")
        magic, length, crc = HEADER.unpack_from(data, offset)
        if magic != MAGIC or length > MAX_RECORD_BYTES:
            return payloads, offset, _damage(data, offset, None, "frame")
        end = offset + HEADER.size + length
        if end > len(data):
            return payloads, offset, _damage(data, offset, None, "torn")
        payload = data[offset + HEADER.size:end]
        if zlib.crc32(payload) != crc:
            return payloads, offset, _damage(data, offset, end, "crc")
        try:
            payloads.append(json.loads(payload))
        except ValueError:
            return payloads, offset, _damage(data, offset, end, "decode")
        offset = end
    return payloads, offset, None


def _damage(data, offset, frame_end, reason):
    search_from = offset + 1 if frame_end is None else frame_end
    return _Damage(offset, _valid_record_after(data, search_from), reason)


def _valid_record_after(data, search_from):
    """Is there a *validated* record at some magic hit past *search_from*?

    Payload bytes can coincide with the magic sequence, so a bare hit
    is not evidence of durable records after the damage — the candidate
    frame must also parse (plausible length, CRC-valid, JSON-decodable)
    before a torn tail is escalated to silent mid-log corruption.
    """
    index = data.find(MAGIC, search_from)
    while index != -1:
        if index + HEADER.size <= len(data):
            _, length, crc = HEADER.unpack_from(data, index)
            end = index + HEADER.size + length
            if length <= MAX_RECORD_BYTES and end <= len(data):
                payload = data[index + HEADER.size:end]
                if zlib.crc32(payload) == crc:
                    try:
                        json.loads(payload)
                    except ValueError:
                        pass
                    else:
                        return True
        index = data.find(MAGIC, index + 1)
    return False


#: The one compact encoder every frame goes through: ``json.dumps``
#: with non-default arguments would build a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_record(payload):
    """Frame one payload dict as magic + length + crc + JSON bytes."""
    data = _ENCODER.encode(payload).encode("utf-8")
    return HEADER.pack(MAGIC, len(data), zlib.crc32(data)) + data


class WriteAheadLog:
    """Append side of the log.

    Opening an existing directory scans the final segment: trailing
    garbage from a torn append is truncated away so new records start
    on a valid frame boundary; corruption *followed by* valid frames
    raises :class:`~repro.errors.WalError` (run recovery instead).
    *tail* is the ``(seq, offset)`` end recovery has already validated:
    the final segment is cut there, not decoded again.  ``records``,
    ``bytes`` (of frames appended) and ``fsyncs`` are plain-int counts
    kept whatever the stats sink.
    """

    def __init__(self, directory, fsync="batch",
                 segment_bytes=DEFAULT_SEGMENT_BYTES, stats=None,
                 fault=None, tail=None):
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if segment_bytes <= 0:
            raise WalError("segment_bytes must be positive")
        self.directory = directory
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.stats = stats if stats is not None else NULL_STATS
        self.fault = fault
        os.makedirs(directory, exist_ok=True)
        self._file = None
        self._seq = 0
        self._offset = 0
        self.records = 0
        self.bytes = 0
        self.fsyncs = 0
        # commit_scope() nesting, and whether a frame awaits its fsync.
        self._scope_depth = 0
        self._scope_unsynced = False
        # Appends must be whole-frame atomic with respect to each
        # other.  An engine fires one instantiation at a time, so
        # in-engine appends are single-threaded by construction; the
        # lock makes frame integrity independent of that discipline
        # (e.g. hosts driving several engines' firings from their own
        # threads).
        self._append_lock = threading.RLock()
        self._open_tail(tail)

    # -- opening -----------------------------------------------------------

    def _open_tail(self, tail):
        segments = list_segments(self.directory)
        if not segments:
            self._start_segment(1)
            return
        seq, path = segments[-1]
        if tail is not None and tail[0] == seq:
            end = tail[1]
        else:
            with open(path, "rb") as handle:
                data = handle.read()
            _, end, damage = scan_segment(data)
            if damage is not None:
                if damage.trailing:
                    raise WalError(
                        f"segment {segment_name(seq)} is corrupt at "
                        f"offset {damage.offset} with records after the "
                        f"damage; refusing to append — run "
                        f"RuleEngine.recover()"
                    )
                end = damage.offset
        if os.path.getsize(path) > end:
            with open(path, "r+b") as handle:
                handle.truncate(end)
        self._file = open(path, "ab")
        self._seq = seq
        self._offset = end

    def _start_segment(self, seq):
        if self._file is not None:
            # A durable record in the new segment must imply the whole
            # outgoing segment is durable, or recovery would find a
            # damaged non-final segment and refuse the entire log.
            if self.fsync != "off":
                self.sync()
            self._file.close()
        path = os.path.join(self.directory, segment_name(seq))
        self._file = open(path, "ab")
        self._seq = seq
        self._offset = 0
        if self.fsync != "off":
            # Make the new segment's directory entry durable: an
            # fsync-acknowledged record must not vanish with its file.
            fsync_dir(self.directory)

    # -- appending ---------------------------------------------------------

    def append(self, payload, batch=False):
        """Frame and append one record; returns the position after it.

        *batch* marks the record as a delta-batch for the ``batch``
        fsync policy.  The frame is flushed to the OS on every append;
        fsync happens per policy.
        """
        with self._append_lock:
            if self._file is None:
                raise WalError("write-ahead log is closed")
            if self.fault is not None and self.fault.crashed:
                # A dead process writes nothing: once a simulated crash
                # has fired, later appends (e.g. from a ``finally``)
                # must not scribble valid frames after the torn one.
                from repro.durability.faultfs import SimulatedCrash

                raise SimulatedCrash("the process already crashed")
            frame = encode_record(payload)
            if (self._offset
                    and self._offset + len(frame) > self.segment_bytes):
                self._start_segment(self._seq + 1)
            if self.fault is not None:
                self.fault.hit("wal.append.before")
                partial = self.fault.partial_write(
                    "wal.append", len(frame)
                )
                if partial is not None:
                    self._file.write(frame[:partial])
                    self._file.flush()
                    self.fault.crashed = True
                    from repro.durability.faultfs import SimulatedCrash

                    raise SimulatedCrash(
                        f"torn write: {partial}/{len(frame)} bytes"
                    )
            self._file.write(frame)
            self._file.flush()
            self._offset += len(frame)
            self.records += 1
            self.bytes += len(frame)
            self.stats.incr("wal_appends")
            self.stats.incr("wal_bytes", len(frame))
            if self.fsync == "batch" and self._scope_depth:
                self._scope_unsynced = True
            elif self.fsync == "always" or (self.fsync == "batch" and batch):
                self.sync()
            return (self._seq, self._offset)

    def sync(self):
        """fsync the current segment to stable storage."""
        with self._append_lock:
            if self._file is None:
                return
            if self.fault is not None:
                self.fault.hit("wal.fsync")
            os.fsync(self._file.fileno())
            self._scope_unsynced = False
            self.fsyncs += 1
            self.stats.incr("wal_fsyncs")

    @contextlib.contextmanager
    def commit_scope(self):
        """Group commit: one fsync for everything appended inside.

        Re-entrant.  Under ``batch`` the policy sync in :meth:`append`
        is recorded, not issued; leaving the *outermost* scope issues
        one :meth:`sync` if any frame was appended — on an exception
        exit too, never after a simulated crash.  A sync that fails
        raises out of the scope and stays owed to the next one, so a
        retried request is not acknowledged un-synced.
        """
        with self._append_lock:
            self._scope_depth += 1
        try:
            yield self
        finally:
            with self._append_lock:
                self._scope_depth -= 1
                dead = self.fault is not None and self.fault.crashed
                if self._scope_unsynced and not self._scope_depth and not dead:
                    self.sync()

    @property
    def in_commit_scope(self):
        """Is a :meth:`commit_scope` open?"""
        return self._scope_depth > 0

    def tell(self):
        """``(segment_seq, offset)`` of the append position."""
        return (self._seq, self._offset)

    def truncate_before(self, seq):
        """Delete whole segments with sequence numbers below *seq*.

        Called after a checkpoint: segments entirely covered by the
        checkpoint are obsolete.  Returns the number removed.
        """
        removed = 0
        for segment_seq, path in list_segments(self.directory):
            if segment_seq < seq:
                os.remove(path)
                removed += 1
        return removed

    def close(self):
        """Flush, fsync (unless policy is ``off``), and close.

        Idempotent and thread-safe: a second close — or one racing an
        in-flight append, as when session eviction races a client
        disconnect in the service layer — is a no-op rather than a
        crash on a half-torn-down file object.
        """
        with self._append_lock:
            if self._file is None:
                return
            self._file.flush()
            if self.fsync != "off":
                self.sync()
            self._file.close()
            self._file = None

    def __repr__(self):
        return (
            f"WriteAheadLog({self.directory!r}, segment {self._seq} "
            f"@ {self._offset}, fsync={self.fsync})"
        )


def read_log_tail(directory, start=None):
    """Read every record from *start* (``(seq, offset)``) to the end.

    Returns ``(payloads, end_position, tail_damage)`` where
    *tail_damage* is None for a clean log or the :class:`_Damage` of
    the tolerated torn/damaged final record.  Raises
    :class:`~repro.errors.RecoveryError` for silently-corrupt middles,
    missing segments, or a *start* beyond the durable data.
    """
    if not os.path.isdir(directory):
        raise RecoveryError(f"no write-ahead log at {directory!r}")
    segments = list_segments(directory)
    start_seq, start_offset = start if start is not None else (None, None)
    if start_seq is not None:
        segments = [(seq, path) for seq, path in segments
                    if seq >= start_seq]
        if not segments or segments[0][0] != start_seq:
            raise RecoveryError(
                f"WAL segment {segment_name(start_seq or 0)} named by "
                f"the checkpoint is missing from {directory!r}"
            )
    for (seq, _), (next_seq, _) in zip(segments, segments[1:]):
        if next_seq != seq + 1:
            raise RecoveryError(
                f"WAL segments are not consecutive: "
                f"{segment_name(seq)} is followed by "
                f"{segment_name(next_seq)}"
            )
    payloads = []
    end_position = start if start is not None else (1, 0)
    tail_damage = None
    for index, (seq, path) in enumerate(segments):
        with open(path, "rb") as handle:
            data = handle.read()
        offset = start_offset if seq == start_seq else 0
        if offset > len(data):
            raise RecoveryError(
                f"checkpointed WAL position {offset} lies beyond "
                f"segment {segment_name(seq)} ({len(data)} bytes); "
                f"durable data was destroyed"
            )
        records, end, damage = scan_segment(data, offset)
        last = index == len(segments) - 1
        if damage is not None and (not last or damage.trailing):
            raise RecoveryError(
                f"WAL record at {segment_name(seq)}:{damage.offset} is "
                f"corrupt ({damage.reason}) with durable records after "
                f"it; refusing to recover silently"
            )
        payloads.extend(records)
        end_position = (seq, end)
        tail_damage = damage
    return payloads, end_position, tail_damage


def bytes_between(directory, start, end):
    """Log bytes from position *start* (None: the first segment's
    start) up to position *end*, across segment boundaries."""
    start_seq, start_offset = start if start is not None else (0, 0)
    end_seq, end_offset = end
    total = 0
    for seq, path in list_segments(directory):
        if seq < start_seq or seq > end_seq:
            continue
        size = end_offset if seq == end_seq else os.path.getsize(path)
        total += size - (start_offset if seq == start_seq else 0)
    return total


def _record_spans(data, start=0):
    """``(start, end)`` byte spans of the intact frames from *start*.

    Stops at the first frame that fails the header or CRC check, like
    :func:`scan_segment` (JSON validity is not re-checked — a
    CRC-valid frame is a span even if its payload fails to decode).
    """
    spans = []
    offset = start
    while offset + HEADER.size <= len(data):
        magic, length, crc = HEADER.unpack_from(data, offset)
        if magic != MAGIC or length > MAX_RECORD_BYTES:
            break
        end = offset + HEADER.size + length
        if end > len(data):
            break
        if zlib.crc32(data[offset + HEADER.size:end]) != crc:
            break
        spans.append((offset, end))
        offset = end
    return spans


def truncate_after(directory, start, keep):
    """Physically keep only the first *keep* intact records past *start*.

    Everything after them — later records, later segments, and any
    damaged tail bytes — is deleted.  Recovery uses this to roll an
    incomplete trailing firing out of the log before logging resumes,
    so a second recovery of the same directory sees the same history.
    Returns the ``(seq, offset)`` cut position, or None if the log
    holds no more than *keep* intact records (nothing to cut).
    """
    seq0, off0 = start if start is not None else (0, 0)
    cut = None
    for seq, path in list_segments(directory):
        if seq < seq0:
            continue
        if cut is not None:
            os.remove(path)
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        for span_start, _ in _record_spans(
            data, off0 if seq == seq0 else 0
        ):
            if keep == 0:
                cut = (seq, span_start)
                break
            keep -= 1
        if cut is not None:
            with open(path, "r+b") as handle:
                handle.truncate(cut[1])
    return cut
