"""Crash recovery: checkpoint restore plus batched WAL-tail replay.

Recovery rebuilds an engine in four steps:

1. **Checkpoint** — :func:`repro.durability.checkpoint.load_checkpoint`
   validates and loads the checkpoint ``CURRENT`` names (CRC-checked);
   with no checkpoint the whole log replays from an empty working
   memory.
2. **Program** — the manifest's program text (or an explicit
   *program* override) is loaded, so the matcher compiles the same
   rule base the crashed process had.
3. **Restore** — the WM snapshot replays through
   :func:`repro.wm.snapshot.restore_wm`, which rides the batched
   propagation path; refraction stamps recorded in the manifest are
   re-applied to the rebuilt conflict set.
4. **Replay** — the WAL tail past the checkpoint position replays:
   each delta record (one original batch flush, or one single event)
   goes through its own ``wm.batch()``, so original batches replay
   set-oriented while the record sequence preserves the original
   timeline; firing records re-stamp refraction at exactly the state
   the original firing saw.

Firings are logged as bracketed transactions (``f`` stamp, the RHS's
delta records, ``e`` terminator).  A log that ends inside such a
bracket is a firing the crash cut short: replaying its ``f`` stamp
would mark the instantiation fired while its effects are lost, a state
no uninterrupted run can reach.  Recovery therefore rolls the whole
unterminated firing back — the trailing records from its ``f`` onward
are dropped (and, when logging resumes, physically truncated so a
second crash-and-recover sees the same history).  The scan walks
backward and matches ``e`` terminators to ``f`` stamps so firings
nested through RHS ``call`` actions roll back as a unit.


Because every matcher consumes the same batched delta stream, the
recovered conflict set, dominance order, refire eligibility, and WM
contents are identical whichever of Rete/naive/DIPS is attached
— the crash-recovery property tests assert exactly that.
"""

from __future__ import annotations

import os

from repro.core.instantiation import recency_key
from repro.durability.wal import FORMAT_VERSION
from repro.errors import RecoveryError, WorkingMemoryError
from repro.wm.wme import decode_shapes


class RecoveryReport:
    """What a recovery did; exposed as ``engine.recovery_report``."""

    __slots__ = ("checkpoint_path", "restored_wmes", "replayed_records",
                 "replayed_deltas", "replayed_firings", "tail_damaged",
                 "dropped_records", "wal_position")

    def __init__(self, checkpoint_path, restored_wmes, replayed_records,
                 replayed_deltas, replayed_firings, tail_damaged,
                 dropped_records, wal_position):
        self.checkpoint_path = checkpoint_path
        self.restored_wmes = restored_wmes
        self.replayed_records = replayed_records
        self.replayed_deltas = replayed_deltas
        self.replayed_firings = replayed_firings
        self.tail_damaged = tail_damaged
        self.dropped_records = dropped_records
        self.wal_position = wal_position

    def __repr__(self):
        extra = ""
        if self.tail_damaged:
            extra += ", damaged tail dropped"
        if self.dropped_records:
            extra += (
                f", {self.dropped_records} records of an incomplete "
                f"firing rolled back"
            )
        return (
            f"RecoveryReport({self.restored_wmes} WMEs restored, "
            f"{self.replayed_deltas} deltas + "
            f"{self.replayed_firings} firings replayed{extra})"
        )


def recover_engine(engine_cls, path, *, program=None, matcher=None,
                   strategy=None, stats=None, echo=False,
                   durability=True, trace_limit=None, on_error=None,
                   backend=None):
    """Rebuild a :class:`RuleEngine` from the WAL directory *path*.

    *matcher* may be a matcher instance or a registry name
    (:data:`repro.match.MATCHERS`); by default the manifest's
    recorded matcher (falling back to Rete) is used, so recovery is
    matcher-faithful without the caller restating it.  *backend*
    overrides the storage backend spec for substrate-backed matchers
    (default: the manifest's recorded backend).  *durability*
    re-attaches logging to the same directory (pass ``False`` for a
    read-only resurrection, or a :class:`DurabilityConfig` to change
    the policy).  The recovered engine carries a
    :class:`RecoveryReport` as ``engine.recovery_report``.
    """
    from repro.durability.checkpoint import checkpoint_size, load_checkpoint
    from repro.durability.manager import DurabilityConfig, DurabilityManager
    from repro.durability.wal import (
        bytes_between, read_log_tail, truncate_after,
    )
    from repro.match import build_matcher, matcher_name
    from repro.wm.snapshot import restore_wm

    if not os.path.isdir(path):
        raise RecoveryError(f"no write-ahead log directory at {path!r}")
    loaded = load_checkpoint(path)
    manifest = loaded.manifest if loaded is not None else {}
    start = tuple(manifest["wal"]) if loaded is not None else None
    payloads, end_position, tail_damage = read_log_tail(path, start)

    # A log ending inside a firing transaction (an ``f`` stamp with
    # neither its ``e`` commit nor its ``a`` abort on disk) is a firing
    # the crash cut short — possibly mid-rollback: the live engine
    # stages RHS effects, so nothing of it is durable either way, and
    # dropping it wholesale is correct for both.  Scan backward
    # matching terminators to stamps so firings nested through RHS
    # ``call`` → ``run()`` are handled.
    drop_from = None
    depth = 0
    for index in range(len(payloads) - 1, -1, -1):
        kind = payloads[index].get("k")
        if kind in ("e", "a"):
            depth += 1
        elif kind == "f":
            if depth:
                depth -= 1
            else:
                drop_from = index
    dropped = 0
    if drop_from is not None:
        dropped = len(payloads) - drop_from
        payloads = payloads[:drop_from]

    # Session-meta records in the tail are newer than the manifest (a
    # resumed session may have overridden the matcher), so they win.
    # Each carries the log's format version; an older log is refused
    # whole rather than decoded by a second reader.
    meta = {}
    for payload in payloads:
        if payload.get("k") == "m":
            meta = payload
            version = payload.get("v", 1)
            if version != FORMAT_VERSION:
                raise RecoveryError(
                    f"write-ahead log at {os.fspath(path)!r} is format "
                    f"version {version!r}; this build reads version "
                    f"{FORMAT_VERSION} only"
                )
    if matcher is None:
        matcher = (
            meta.get("matcher") or manifest.get("matcher") or "rete"
        )
    if isinstance(matcher, str):
        matcher = build_matcher(
            matcher, backend=backend or manifest.get("rdb_backend")
        )
    if strategy is None:
        strategy = (
            meta.get("strategy") or manifest.get("strategy") or "lex"
        )
    # Error policies are not persisted (they may hold callables and
    # tuning the policy is a per-session decision); callers restate
    # one via *on_error*, defaulting to the engine's own default.
    engine = engine_cls(matcher=matcher, strategy=strategy, echo=echo,
                        stats=stats, trace_limit=trace_limit,
                        **({} if on_error is None
                           else {"on_error": on_error}))

    program_text = program
    if program_text is None:
        program_text = manifest.get("program")
    if program_text:
        engine.load(program_text)

    restored = 0
    if loaded is not None:
        restored = len(
            restore_wm(engine.wm, loaded.wm_snapshot, stats=engine.stats)
        )
        engine.wm._next_tag = max(
            engine.wm._next_tag, manifest.get("next_tag", 1)
        )
        engine.cycle_count = manifest.get("cycle_count", 0)
        # Quarantine parking first (so stamps are looked up where the
        # instantiations actually live), then refraction stamps.
        _restore_reliability(engine, manifest.get("reliability"))
        for entry in manifest.get("fired", ()):
            _mark_fired(engine, entry)
        for key, resp in manifest.get("requests", ()):
            engine.request_journal[key] = resp

    deltas, firings = _replay(engine, payloads)
    engine.stats.incr("replayed_deltas", deltas)

    if durability:
        config = (
            durability
            if isinstance(durability, DurabilityConfig)
            else DurabilityConfig(path)
        )
        if dropped:
            # Logging resumes past the rolled-back firing, so cut it
            # out of the file too: otherwise a second crash-and-recover
            # would see the dropped stamp mid-log and replay it.
            cut = truncate_after(path, start, drop_from)
            if cut is not None:
                end_position = cut
        manager = DurabilityManager(config, stats=engine.stats,
                                    resume=end_position)
        # The resumed session keeps the bound it had: the tail just
        # replayed counts toward its next self-checkpoint.
        manager.resume_from(
            checkpoint_size(loaded.path) if loaded is not None else 0,
            bytes_between(path, start, end_position),
        )
        manager.attach(engine.wm)
        manager.log_meta(matcher_name(engine.matcher),
                         engine.strategy.name)
        engine.durability = manager

    engine.recovery_report = RecoveryReport(
        loaded.path if loaded is not None else None,
        restored,
        len(payloads),
        deltas,
        firings,
        tail_damage is not None,
        dropped,
        end_position,
    )
    return engine


def _replay(engine, payloads):
    """Apply WAL records to *engine*; returns (deltas, firings) counts.

    Each delta record — one flushed batch, or one single event — is
    applied through its own ``wm.batch()``, so original batches replay
    set-oriented while the record *sequence* preserves the original
    timeline.  Records are never merged: coalescing two records would
    let a make/remove pair net away and silently keep a fired
    instantiation alive where the original run retracted and re-created
    it eligible.

    Firing brackets replay with their recorded outcome: an ``e``
    commit keeps the refraction stamp its ``f`` applied; an ``a``
    abort under the ``halt`` outcome restores the pre-fire stamp
    (the live engine rolled the firing back wholesale), while
    skip/retry/quarantine aborts leave the stamp consumed and
    skip/quarantine rebuild the dead-letter record.
    """
    wm = engine.wm
    deltas = 0
    firings = 0
    open_firings = []

    def apply_record(record):
        nonlocal deltas
        if "s" not in record:  # a tail past a checkpoint has no ``m``
            raise RecoveryError("WAL delta frame has no shape table: the "
                                f"log predates format {FORMAT_VERSION}")
        shapes = decode_shapes(record["s"])
        try:
            with wm.batch(stats=engine.stats):
                for sign, shape, tag, *values in record["e"]:
                    if sign == "+":
                        wm.restore(*shapes[shape], values, tag)
                    elif sign == "-":
                        wm.remove(tag)
                    else:
                        raise RecoveryError(f"unknown delta sign {sign!r}")
                    deltas += 1
        except WorkingMemoryError as error:
            raise RecoveryError(
                f"WAL replay failed: {error}"
            ) from error
        wm._next_tag = max(wm._next_tag, record.get("n", 1))
        # A delta record carrying an idempotency key is a keyed assert
        # whose effects and dedup marker share one atomic frame: mark
        # the key applied so a post-recovery retry is deduplicated
        # instead of double-applied.  The synthesized response carries
        # the applied delta count; the server adds ``deduped`` when it
        # answers a retry from the journal.
        key = record.get("q")
        if key is not None:
            engine.request_journal[key] = {
                "ingested": sum(row[0] == "+" for row in record["e"]),
                "wm_size": len(wm),
                "recovered": True,
            }

    for payload in payloads:
        kind = payload.get("k")
        if kind == "d":
            apply_record(payload)
        elif kind == "f":
            open_firings.append(_mark_fired(engine, payload))
            firings += 1
            engine.cycle_count += 1
        elif kind == "l":
            engine.literalize(payload["c"], *payload["a"])
        elif kind == "p":
            _replay_rule(engine, payload["src"])
        elif kind == "x":
            if payload["r"] in engine.rules:
                engine.excise(payload["r"])
        elif kind == "P":
            _replay_replace(engine, payload["r"], payload["src"])
        elif kind == "e":
            if open_firings:
                open_firings.pop()
        elif kind == "a":
            _replay_abort(engine, payload, open_firings)
        elif kind == "q":
            _replay_quarantine(engine, payload["r"])
        elif kind == "Q":
            engine.reliability.release(engine, payload["r"])
        elif kind == "R":
            # The reset's clear already replayed as an ordinary delta
            # record; zero the control state exactly as reset() did.
            engine.tracer.clear()
            engine.halted = False
            engine.cycle_count = 0
            engine.reliability.clear_runtime_state(engine)
        elif kind == "j":
            # A completed idempotent request's journal entry: restore
            # the recorded response so a retried request after recovery
            # is answered from the journal, never re-applied.
            engine.request_journal[payload["key"]] = payload["resp"]
        elif kind == "m":
            pass  # consumed by the pre-scan
        else:
            raise RecoveryError(f"unknown WAL record kind {kind!r}")
    return deltas, firings


def _replay_abort(engine, payload, open_firings):
    """Replay one rolled-back firing's terminator."""
    from repro.engine.reliability import DeadLetter

    instantiation = prior = None
    if open_firings:
        instantiation, prior = open_firings.pop()
    outcome = payload.get("o", "halt")
    engine.reliability.record_failure(payload["r"])
    if outcome == "halt":
        if instantiation is not None:
            engine.conflict_set.restore_refraction(instantiation, prior)
        return
    if outcome in ("skip", "quarantine"):
        engine.reliability.add_dead_letter(DeadLetter(
            payload["r"],
            payload.get("c", 0),
            payload.get("n", 1),
            payload.get("i", ()),
            payload.get("err", ""),
            payload.get("t"),
            outcome,
        ))


def _replay_quarantine(engine, rule_name):
    """Replay a rule entering quarantine."""
    parked = engine.conflict_set.quarantine_rule(rule_name)
    engine.reliability.quarantined[rule_name] = {
        "cycle": engine.cycle_count,
        "failures": engine.reliability.failure_counts.get(rule_name, 0),
        "reason": "recovered from log",
        "parked": parked,
    }


def _restore_reliability(engine, state):
    """Apply a checkpoint manifest's reliability section."""
    from repro.engine.reliability import DeadLetter

    if not state:
        return
    manager = engine.reliability
    manager.failure_counts.update(state.get("failures", {}))
    for rule_name, info in state.get("quarantined", {}).items():
        parked = engine.conflict_set.quarantine_rule(rule_name)
        manager.quarantined[rule_name] = {
            "cycle": info.get("cycle", 0),
            "failures": info.get("failures", 0),
            "reason": info.get("reason", ""),
            "parked": parked,
        }
    for entry in state.get("dead_letters", ()):
        manager.add_dead_letter(DeadLetter(
            entry.get("r", "?"),
            entry.get("c", 0),
            entry.get("n", 1),
            entry.get("i", ()),
            entry.get("err", ""),
            entry.get("t"),
            entry.get("o", "skip"),
        ))


def _replay_rule(engine, source):
    """Add a logged rule unless the program override already has it."""
    from repro.lang.parser import parse_rule

    rule = parse_rule(source)
    if rule.name not in engine.rules:
        engine.add_rule(rule)


def _replay_replace(engine, old_name, source):
    """Replay an atomic rule replacement (one ``P`` record).

    In-memory the swap decomposes safely — atomicity only matters on
    disk.  Presence checks keep the replay idempotent against a
    program override that already reflects the surgery.
    """
    from repro.lang.parser import parse_rule

    rule = parse_rule(source)
    if old_name in engine.rules:
        engine.excise(old_name)
    if rule.name not in engine.rules:
        engine.add_rule(rule)


def _mark_fired(engine, entry):
    """Re-stamp refraction for one fired-instantiation record.

    The stamp (:func:`~repro.durability.manager.fired_signature`) is a
    regular instantiation's CE-order tags, or an SOI's ``[count,
    digest, head tags]``.  Candidates are matched on rule, set flag and
    the head's recency first, which filters exactly, so one candidate
    is signed and its count and digest compared: a replayed SOI whose
    membership differs from the logged one is not found.

    Returns ``(instantiation, prior_refraction_state)`` so an abort
    terminator can restore the stamp the way the live rollback did.
    Parked (quarantined) instantiations are searched too — their
    stamps are as real as live ones.
    """
    from repro.durability.manager import fired_signature

    rule_name = entry["r"]
    wants_soi = bool(entry["s"])
    signature = entry["t"]
    head = recency_key(signature[2] if wants_soi else signature)
    candidates = engine.conflict_set.of_rule(rule_name)
    candidates.extend(engine.conflict_set.parked_of_rule(rule_name))
    for instantiation in candidates:
        if (instantiation.is_set_oriented != wants_soi
                or instantiation.recency_key() != head):
            continue
        if fired_signature(instantiation) == signature:
            prior = instantiation.refraction_state()
            instantiation.mark_fired()
            return instantiation, prior
    raise RecoveryError(
        f"fired instantiation of rule {rule_name!r} is not in the "
        f"recovered conflict set (stamp {signature}); the log and the "
        f"rule base disagree"
    )
