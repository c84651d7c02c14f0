"""DurabilityConfig and the manager that ties WAL + checkpoints to a WM.

The manager is an ordinary working-memory observer — registered
*prepended*, so the log is written before any matcher propagates a
change (write-ahead in observer order too).  Batched flushes arrive
through the ``on_batch`` hook and become ONE record; single events
outside a batch become one record each.  Firings are logged by the
engine as a bracketed transaction — :meth:`DurabilityManager.log_fire`
(the refraction stamp) before the RHS runs, the RHS's own delta
records as they happen, and :meth:`DurabilityManager.log_fire_end`
after — so recovery can restore refraction stamps and roll back a
firing the crash cut short.

A durable engine checkpoints itself: once the log written since its
last checkpoint passes ``max(FLOOR, MULTIPLE × that checkpoint's
bytes)`` (:meth:`DurabilityManager.checkpoint_due`), the end of a
committed ``run()`` — or, served, the end of the request — writes a
new one.  Recovery time and log length are then bounded by a multiple
of working memory's size instead of growing with uptime.

A manager opened on a directory that already holds a previous
session's records refuses to attach: time tags would restart at 1 and
a later recovery would replay two interleaved histories.  Recovery
(:func:`repro.durability.recovery.recover_engine`) passes *resume*
after it has replayed the existing log: ``True``, or the validated
``(seq, offset)`` end of that log, which spares the append side a
second decode of the final segment.
"""

from __future__ import annotations

from repro.core.instantiation import ce_tags
from repro.engine.stats import NULL_STATS
from repro.errors import DurabilityError
from repro.wm.wme import encode_rows

#: Log bytes a session may write before its first checkpoint is due;
#: also the least it writes between any two.
FLOOR = 128 * 1024
#: A checkpoint is due once the log since the last one is this many
#: times that checkpoint's size: replaying the tail then costs about
#: as much as loading the snapshot, and rewriting the snapshot costs
#: a fixed share of the log it retires.
MULTIPLE = 2


class DurabilityConfig:
    """Configuration for the durability subsystem.

    *wal_dir* — directory holding segments and checkpoints;
    *fsync* — ``always`` / ``batch`` / ``off`` (see
    :mod:`repro.durability.wal`);
    *segment_bytes* — WAL rollover threshold;
    *retain_checkpoints* — checkpoints kept after each new one;
    *fault* — an optional
    :class:`~repro.durability.faultfs.FaultInjector`;
    *label* — an owner tag named in operator-facing errors (the
    service layer sets it to the tenant's session id, so a used-dir
    collision says *whose* directory collided).
    """

    __slots__ = ("wal_dir", "fsync", "segment_bytes",
                 "retain_checkpoints", "fault", "label")

    def __init__(self, wal_dir, fsync="batch", segment_bytes=None,
                 retain_checkpoints=2, fault=None, label=None):
        from repro.durability.wal import DEFAULT_SEGMENT_BYTES

        self.wal_dir = str(wal_dir)
        self.fsync = fsync
        self.segment_bytes = (
            segment_bytes if segment_bytes is not None
            else DEFAULT_SEGMENT_BYTES
        )
        self.retain_checkpoints = retain_checkpoints
        self.fault = fault
        self.label = label

    def __repr__(self):
        return (
            f"DurabilityConfig({self.wal_dir!r}, fsync={self.fsync!r}, "
            f"segment_bytes={self.segment_bytes})"
        )


def _cause_summary(error):
    """One-line summary of a FiringError's underlying cause."""
    cause = error.__cause__
    if cause is None:
        return str(error)
    return f"{type(cause).__name__}: {cause}"


def fired_signature(instantiation):
    """The refraction stamp of a fired instantiation, as JSON-safe data.

    A regular instantiation's stamp is its time tags in CE order: time
    tags are never reused, so it pins the exact WME combination.  An
    SOI's is ``[member count, membership digest, head token's tags in
    CE order]`` — O(1) in the size of the set; the digest
    (:attr:`~repro.rete.snode.SetOrientedInstance.digest`) is
    maintained as tokens enter and leave.  The ``f`` frame, the
    checkpoint manifest's ``fired`` list and dead letters all carry it.
    """
    if not instantiation.is_set_oriented:
        return ce_tags(instantiation.token)
    soi = instantiation.soi
    return [len(soi), soi.digest, ce_tags(soi.head())]


def collect_fired(engine):
    """Refraction stamps of every currently-ineligible instantiation.

    Parked (quarantined) instantiations are included: they are still
    matched, and a release after recovery must see their true stamps.
    """
    conflict_set = engine.conflict_set
    candidates = list(conflict_set.instantiations())
    for rule_name in conflict_set.parked_rules():
        candidates.extend(conflict_set.parked_of_rule(rule_name))
    fired = []
    for instantiation in candidates:
        if instantiation.eligible():
            continue
        fired.append({
            "r": instantiation.rule.name,
            "s": 1 if instantiation.is_set_oriented else 0,
            "t": fired_signature(instantiation),
        })
    return fired


def collect_reliability(engine):
    """JSON-safe reliability state for the checkpoint manifest.

    Returns None when there is nothing to record (no quarantines,
    failures, or dead letters), keeping clean-run manifests unchanged.
    """
    manager = engine.reliability
    state = {
        "quarantined": {
            rule_name: {
                "cycle": info.get("cycle", 0),
                "failures": info.get("failures", 0),
                "reason": info.get("reason", ""),
            }
            for rule_name, info in manager.quarantined.items()
        },
        "failures": dict(manager.failure_counts),
        "dead_letters": [
            {
                "r": letter.rule_name,
                "c": letter.cycle,
                "n": letter.attempts,
                "i": list(letter.action_path),
                "err": letter.error,
                "t": letter.signature,
                "o": letter.outcome,
            }
            for letter in manager.dead_letters
        ],
    }
    if not any(state.values()):
        return None
    return state


def _holds_prior_session(directory):
    """Does *directory* already contain records or checkpoints?"""
    import os

    from repro.durability import checkpoint as ckpt
    from repro.durability.wal import list_segments

    if not os.path.isdir(directory):
        return False
    if ckpt.read_current(directory) is not None:
        return True
    if ckpt.list_checkpoints(directory):
        return True
    return any(
        os.path.getsize(path) for _, path in list_segments(directory)
    )


class DurabilityManager:
    """Owns the WAL and checkpoints for one engine/working memory."""

    def __init__(self, config, stats=None, resume=False):
        from repro.durability.wal import WriteAheadLog

        if not isinstance(config, DurabilityConfig):
            config = DurabilityConfig(config)
        if not resume and _holds_prior_session(config.wal_dir):
            owner = (
                f" (session {config.label!r})"
                if config.label is not None else ""
            )
            raise DurabilityError(
                f"write-ahead log directory {config.wal_dir!r}{owner} "
                f"already holds a previous session; a fresh engine would "
                f"restart time tags and make the log unrecoverable — use "
                f"RuleEngine.recover({config.wal_dir!r}) to resume it, "
                f"or point durability at a fresh directory"
            )
        self.config = config
        self.stats = stats if stats is not None else NULL_STATS
        self.wal = WriteAheadLog(
            config.wal_dir,
            fsync=config.fsync,
            segment_bytes=config.segment_bytes,
            stats=self.stats,
            fault=config.fault,
            tail=None if isinstance(resume, bool) else resume,
        )
        self.wm = None
        #: Checkpoints this manager wrote, and the bytes of the latest
        #: (or of the one recovery loaded).
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        # ``wal.bytes`` when that checkpoint was taken; recovery sets it
        # negative by the tail it replayed, which the log still holds.
        self._wal_mark = 0
        # Idempotency key of the request whose delta record is about to
        # be written.  The service layer sets it immediately before a
        # keyed assert; the next delta record consumes it, embedding the
        # key in the same atomic WAL frame as the effects — a crash
        # loses both or neither, never the effects without the marker.
        self.pending_request_key = None

    # -- observation -------------------------------------------------------

    def attach(self, wm):
        """Observe *wm*, ahead of any matcher (write-ahead ordering)."""
        self.wm = wm
        wm.attach(self.on_event, on_batch=self.on_batch, prepend=True)

    def detach(self):
        if self.wm is not None:
            self.wm.detach(self.on_event)
            self.wm = None

    def on_event(self, event):
        self.wal.append(self._delta_payload([event]), batch=False)

    def on_batch(self, events):
        self.wal.append(self._delta_payload(events), batch=True)

    def _delta_payload(self, events):
        shapes, rows = encode_rows(
            ((event.sign, event.wme) for event in events), signed=True
        )
        payload = {"k": "d", "n": self.wm.latest_time_tag + 1,
                   "s": shapes, "e": rows}
        if self.pending_request_key is not None:
            payload["q"] = self.pending_request_key
            self.pending_request_key = None
        return payload

    def log_meta(self, matcher_name, strategy_name):
        """Record the log's format version and the session's
        matcher/strategy for checkpoint-free recovery (the checkpoint
        manifest also carries them)."""
        from repro.durability.wal import FORMAT_VERSION

        self.wal.append(
            {"k": "m", "v": FORMAT_VERSION, "matcher": matcher_name,
             "strategy": strategy_name},
            batch=False,
        )

    def log_literalize(self, wme_class, attributes):
        """Record a ``literalize`` so checkpoint-free recovery has it."""
        self.wal.append(
            {"k": "l", "c": wme_class, "a": list(attributes)}, batch=False
        )

    def log_rule(self, rule):
        """Record a rule definition (pretty-printed back to source)."""
        from repro.lang.printer import format_rule

        self.wal.append({"k": "p", "src": format_rule(rule)}, batch=False)

    def log_excise(self, rule_name):
        """Record a runtime rule removal."""
        self.wal.append({"k": "x", "r": rule_name}, batch=False)

    def log_replace(self, rule_name, rule):
        """Record an atomic rule replacement as ONE record.

        A composed excise+add pair would not be atomic in the log — a
        crash between the two records recovers with neither rule.  The
        single ``P`` record replays as excise-then-add, so recovery
        always sees either the old rule (record not yet durable) or
        the new one, never the gap.
        """
        from repro.lang.printer import format_rule

        self.wal.append(
            {"k": "P", "r": rule_name, "src": format_rule(rule)},
            batch=False,
        )

    def log_fire(self, instantiation):
        """Open a firing transaction: the refraction stamp.

        The RHS's working-memory deltas follow as ordinary records;
        :meth:`log_fire_end` terminates the transaction.  A log ending
        between the two is an incomplete firing, which recovery rolls
        back wholesale instead of replaying a stamp whose effects
        never became durable.
        """
        self.wal.append({
            "k": "f",
            "r": instantiation.rule.name,
            "s": 1 if instantiation.is_set_oriented else 0,
            "t": fired_signature(instantiation),
        }, batch=False)

    def log_fire_end(self):
        """Terminate the firing transaction opened by :meth:`log_fire`."""
        self.wal.append({"k": "e"}, batch=False)

    def log_abort(self, instantiation, outcome, error):
        """Terminate a firing transaction as *rolled back*.

        The record carries the containment outcome so replay restores
        the refraction stamp for ``halt`` (the firing never happened)
        and leaves it consumed for ``skip``/``retry``/``quarantine``
        (the attempt was spent), plus enough context — failed action
        path and error summary — to rebuild the dead-letter list.
        """
        self.wal.append({
            "k": "a",
            "o": outcome,
            "r": instantiation.rule.name,
            "c": error.cycle,
            "n": error.attempt,
            "i": list(error.action_path),
            "err": _cause_summary(error),
        }, batch=False)

    def log_quarantine(self, rule_name):
        """Record a rule entering quarantine."""
        self.wal.append({"k": "q", "r": rule_name}, batch=False)

    def log_release(self, rule_name):
        """Record a quarantined rule being released."""
        self.wal.append({"k": "Q", "r": rule_name}, batch=False)

    def log_reset(self):
        """Record an :meth:`RuleEngine.reset` (after its clear deltas).

        Replay zeroes the control state — cycle count, halt flag,
        trace, dead letters, quarantine — exactly as the live reset
        did; the preceding delta record already emptied working memory.
        """
        self.wal.append({"k": "R"}, batch=False)

    def log_request(self, key, response):
        """Record a completed idempotent request's journal entry.

        Written *after* the request's effects are logged (a run's
        firing brackets, an assert's delta record) and synced with them
        when the request's commit scope closes, so replay restores the
        exact response a retried request should see.  A crash
        between the effects and this record is safe for ``run``:
        replay restores refraction stamps, so re-running to quiescence
        fires nothing new — the retry converges on the same state and
        merely reports a smaller ``fired`` count.
        """
        self.wal.append(
            {"k": "j", "key": key, "resp": response}, batch=False
        )

    def commit_scope(self):
        """Group commit — everything logged inside shares one fsync
        (:meth:`~repro.durability.wal.WriteAheadLog.commit_scope`)."""
        return self.wal.commit_scope()

    # -- checkpointing -----------------------------------------------------

    @property
    def wal_bytes_since_checkpoint(self):
        """Log bytes a recovery would replay past the last checkpoint."""
        return self.wal.bytes - self._wal_mark

    def resume_from(self, checkpoint_bytes, tail_bytes):
        """Seed the self-checkpoint bound of a recovered session: the
        loaded checkpoint's size and the log tail it replayed."""
        self.checkpoint_bytes = checkpoint_bytes
        self._wal_mark = self.wal.bytes - tail_bytes

    def checkpoint_due(self):
        """Has the log since the last checkpoint outgrown its bound?"""
        return self.wal.bytes - self._wal_mark > max(
            FLOOR, MULTIPLE * self.checkpoint_bytes
        )

    def checkpoint_if_due(self, engine):
        """The self-checkpoint: write one if :meth:`checkpoint_due`,
        but only outside every commit scope and batch — so never
        inside a served request, a firing, or before the caller's
        frames are synced.  Returns its path, or None."""
        if (self.wal.in_commit_scope or engine.wm.in_batch
                or not self.checkpoint_due()):
            return None
        return self.checkpoint(engine)

    def checkpoint(self, engine):
        """Write an atomic checkpoint of *engine*; returns its path.

        The WAL is synced first so the manifest's position is durable;
        afterwards obsolete segments are truncated and old checkpoints
        pruned.
        """
        from repro.durability import checkpoint as ckpt
        from repro.match import matcher_name
        from repro.wm.snapshot import dump_wm

        if engine.wm.in_batch:
            raise DurabilityError(
                "cannot checkpoint inside an open batch()"
            )
        self.wal.sync()
        position = self.wal.tell()
        # COND tables are derived state that restore_wm + tail replay
        # rebuild exactly, so only the backend they live on is recorded;
        # memory-backed manifests carry no backend field.
        storage = getattr(engine.matcher, "storage_backend", None)
        rdb_backend = None
        if storage is not None and storage.name != "memory":
            rdb_backend = storage.spec
        path = ckpt.write_checkpoint(
            self.config.wal_dir,
            wm_snapshot=dump_wm(engine.wm),
            wal_position=position,
            next_tag=engine.wm.latest_time_tag + 1,
            program=ckpt.program_source(engine),
            matcher_name=matcher_name(engine.matcher),
            strategy_name=engine.strategy.name,
            fired=collect_fired(engine),
            cycle_count=engine.cycle_count,
            reliability=collect_reliability(engine),
            requests=[
                [key, resp]
                for key, resp in getattr(
                    engine, "request_journal", {}
                ).items()
            ] or None,
            fault=self.config.fault,
            rdb_backend=rdb_backend,
        )
        fault = self.config.fault
        if fault is not None:
            fault.hit("checkpoint.truncate")
        self.wal.truncate_before(position[0])
        ckpt.prune_checkpoints(
            self.config.wal_dir, self.config.retain_checkpoints
        )
        self.checkpoints += 1
        self.checkpoint_bytes = ckpt.checkpoint_size(path)
        self._wal_mark = self.wal.bytes
        self.stats.incr("checkpoints")
        return path

    def close(self):
        """Flush and close the log (fsync per policy)."""
        self.detach()
        self.wal.close()
