"""Session lifecycle for the rule service: one tenant = one engine.

A :class:`Session` wraps a private :class:`~repro.engine.engine.RuleEngine`
built from a shared :class:`~repro.service.rulebase.RuleBase`.  Tenant
isolation is composed from the subsystems earlier PRs built:

* **state** — working memory, conflict set, refraction, and trace are
  engine-private; nothing about one tenant's facts is visible to
  another (shared rule bases expose only immutable ASTs);
* **durability** — each session owns a WAL directory
  (``<wal_root>/<session_id>``), so a crash recovers every tenant
  independently and an evicted session can be resumed later;
* **fault containment** — per-session error policies
  (halt/skip/retry/quarantine) and per-request run watchdogs
  (firing limit + wall clock) keep one tenant's poison rule or
  runaway program from taking the server down.

:class:`SessionRegistry` owns the id → session map and the eviction
policy: sessions idle past ``idle_ttl`` are checkpointed and closed by
the sweeper, and when ``max_sessions`` is reached the least recently
used *idle* session is evicted to admit the new one (every admitted
session is busy ⇒ the create is rejected with
:class:`~repro.errors.AdmissionError` backpressure instead).
Eviction and client disconnects race by design; ``RuleEngine.close``
is idempotent, so both paths simply call it.

Admission and eviction must not race each other, though: the sweeper
runs on an executor thread while requests are admitted on the event
loop, so lookup and the ``pending`` increment happen atomically under
the registry lock (:meth:`SessionRegistry.checkout` /
:meth:`~SessionRegistry.checkin`).  A request that wins the race
blocks eviction until it completes; a request that loses gets a clean
``no_session`` (the session was checkpointed intact) — never a
half-applied batch.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
import time

from repro.errors import AdmissionError, ServiceError, WalError

#: Session ids double as WAL directory names, so they are restricted
#: to filesystem-safe characters (and can never traverse).
SESSION_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


def validate_session_id(session_id):
    """Return *session_id* or raise :class:`ServiceError`."""
    if not isinstance(session_id, str) or not SESSION_ID_PATTERN.match(
        session_id
    ):
        raise ServiceError(
            f"invalid session id {session_id!r}: need 1-64 characters "
            f"from [A-Za-z0-9._-], starting with a letter or digit"
        )
    return session_id


#: Default cap on per-session idempotency-journal entries.  Old
#: entries evict in insertion order; a client retrying a request more
#: than this many requests later loses dedup protection (it would
#: re-apply), so clients should retry promptly — the retry budget in
#: :class:`~repro.service.client.ServiceClient` is minutes, not hours.
DEFAULT_JOURNAL_LIMIT = 512


def journal_put(engine, key, response, limit=None):
    """Record a completed request's response under its idempotency key,
    evicting the oldest entries past *limit* (insertion order)."""
    journal = engine.request_journal
    journal[key] = response
    limit = DEFAULT_JOURNAL_LIMIT if limit is None else limit
    while len(journal) > limit:
        journal.pop(next(iter(journal)))


class Session:
    """One tenant's engine plus its admission/accounting state."""

    __slots__ = ("id", "engine", "rule_base", "wal_dir", "created_at",
                 "last_used", "pending", "requests", "facts_ingested",
                 "firings", "resumed", "deduped", "create_key",
                 "reloads", "_clock")

    def __init__(self, session_id, engine, rule_base=None, wal_dir=None,
                 resumed=False, create_key=None, clock=time.monotonic):
        self.id = session_id
        self.engine = engine
        self.rule_base = rule_base
        self.wal_dir = wal_dir
        self._clock = clock
        self.created_at = clock()
        self.last_used = self.created_at
        #: Requests admitted but not yet completed (admission control).
        self.pending = 0
        self.requests = 0
        self.facts_ingested = 0
        self.firings = 0
        self.resumed = resumed
        #: Requests answered from the idempotency journal.
        self.deduped = 0
        #: Runtime rule-surgery requests applied (add/remove/replace).
        self.reloads = 0
        #: Idempotency key of the ``create`` that made this session,
        #: so a retried create is recognised instead of rejected.
        self.create_key = create_key

    @property
    def closed(self):
        return self.engine.closed

    def touch(self):
        self.last_used = self._clock()

    def idle_for(self):
        return self._clock() - self.last_used

    def ingest_facts(self, pairs, key=None, journal_limit=None):
        """Atomically ingest ``(class, values)`` pairs; exactly once.

        Returns ``(response, deduped)``.  With an idempotency *key*,
        the engine's request journal is consulted first — a retried
        batch whose first attempt committed is answered from the
        journal, never re-applied — and the key rides *inside* the
        batch's WAL delta record (``pending_request_key``), so the
        effects and the dedup marker are one atomic frame: either both
        survive a crash or neither does.

        The batch is applied whole or not at all: a refused fact rolls
        back the transaction below, and working memory undoes a flush
        the WAL refuses (ENOSPC, torn segment), so the request fails
        cleanly (retryable) instead of leaving a half-applied batch.
        """
        engine = self.engine
        if key is not None:
            cached = engine.request_journal.get(key)
            if cached is not None:
                self.deduped += 1
                return dict(cached), True
        durability = engine.durability
        if key is not None and durability is not None:
            durability.pending_request_key = key
        wm = engine.wm
        savepoint = wm.begin_transaction()
        try:
            made = wm.make_all(pairs)
        except BaseException:
            wm.rollback_transaction(savepoint, engine.stats)
            raise
        else:
            wm.commit_transaction(savepoint, engine.stats)
        finally:
            if durability is not None:
                durability.pending_request_key = None
        self.facts_ingested += len(made)
        response = {"ingested": len(made), "wm_size": len(wm)}
        if key is not None:
            journal_put(engine, key, response, journal_limit)
        return response, False

    def rule_surgery(self, action, *, source=None, rule_name=None,
                     key=None, journal_limit=None, rule_bases=None):
        """Runtime rule surgery — ``add`` / ``remove`` / ``replace``.

        Returns ``(response, deduped)`` like :meth:`ingest_facts`.  The
        engine call WAL-logs the change (``p`` / ``x`` / one atomic
        ``P`` record), so recovery replays the reload in order; with an
        idempotency *key* a retried reload is answered from the journal
        instead of re-applied (an un-keyed retry of ``add`` would raise
        "already defined" — the engine itself stays exactly-once).

        Copy-on-write divergence: after the surgery the session's
        program source no longer matches its shared rule base, so the
        session re-keys onto a fork via ``rule_bases.fork``.  Untouched
        tenants keep sharing the parent entry, and a second tenant
        reloading to a byte-identical program converges on the same
        fork: replacing a rule shared by N tenants parses the new
        program once.
        """
        engine = self.engine
        if key is not None:
            cached = engine.request_journal.get(key)
            if cached is not None:
                self.deduped += 1
                return dict(cached), True
        if action == "add":
            added = engine.add_rule(source)
            response = {"rule": added.name}
        elif action == "remove":
            engine.excise(rule_name)
            response = {"rule": rule_name}
        elif action == "replace":
            new_rule = engine.replace_rule(rule_name, source)
            response = {"rule": new_rule.name, "replaced": rule_name}
        else:  # pragma: no cover - guarded by the op dispatch
            raise ServiceError(f"unknown rule surgery {action!r}")
        self.reloads += 1
        from repro.durability.checkpoint import (
            program_source, rule_base_version,
        )

        program = program_source(engine)
        forked = False
        if rule_bases is not None and self.rule_base is not None:
            if program != self.rule_base.source:
                base, hit = rule_bases.fork(self.rule_base, program)
                self.rule_base = base
                forked = not hit
        response.update(
            rules=len(engine.rules),
            version=rule_base_version(program),
            forked=forked,
        )
        if key is not None:
            journal_put(engine, key, response, journal_limit)
            if engine.durability is not None:
                # Best-effort durable journal entry (see _op_run): the
                # surgery record itself is already on the WAL, so a
                # crash-then-retry without this entry replays the
                # journal miss against an engine that already has the
                # change — the engine-level "already defined"/"no rule"
                # errors surface that explicitly rather than silently
                # double-applying.
                with contextlib.suppress(WalError, OSError):
                    engine.durability.log_request(key, response)
        return response, False

    @property
    def crashed(self):
        """Has a simulated crash (a chaos fault) killed this session's
        log?  Every later append would fail."""
        durability = self.engine.durability
        fault = None if durability is None else durability.config.fault
        return fault is not None and fault.crashed

    def checkpoint_due(self):
        """Has this durable session's log outgrown its self-checkpoint
        bound?"""
        durability = self.engine.durability
        return durability is not None and durability.checkpoint_due()

    def close(self, checkpoint=False):
        """Close the tenant's engine (idempotent).

        *checkpoint* writes a durability checkpoint first when the
        session has a WAL — the eviction path's default, so a later
        resume replays a short tail instead of the whole history.
        Checkpoint failure never blocks the close: it is returned (None
        when there was none) for the caller to count.
        """
        failure = None
        if checkpoint and self.engine.durability is not None:
            try:
                self.engine.checkpoint()
            except Exception as error:
                failure = error
        self.engine.close()
        return failure

    def info(self):
        """JSON-safe session summary for the stats surface.

        A durable session adds ``wal_records`` and ``wal_fsyncs`` (under
        ``fsync=batch`` the second tracks its mutating requests — group
        commit — not its firings), ``wal_bytes_since_checkpoint`` (what
        a recovery would replay) and ``checkpoints`` written.
        """
        durability = self.engine.durability
        wal = {} if durability is None else {
            "wal_records": durability.wal.records,
            "wal_fsyncs": durability.wal.fsyncs,
            "wal_bytes_since_checkpoint":
                durability.wal_bytes_since_checkpoint,
            "checkpoints": durability.checkpoints,
        }
        return {
            "session": self.id,
            "requests": self.requests,
            "pending": self.pending,
            "facts_ingested": self.facts_ingested,
            "firings": self.firings,
            "deduped": self.deduped,
            "reloads": self.reloads,
            "rules": len(self.engine.rules),
            "wm_size": len(self.engine.wm),
            "conflict_set": len(self.engine.conflict_set),
            "idle_s": round(self.idle_for(), 3),
            "resumed": self.resumed,
            "durable": self.wal_dir is not None,
            **wal,
        }

    def __repr__(self):
        return (f"Session({self.id!r}, {len(self.engine.wm)} WMEs, "
                f"pending={self.pending})")


class SessionRegistry:
    """id → :class:`Session`, with TTL/LRU eviction and clean closes."""

    def __init__(self, rule_bases, wal_root=None, fsync="batch",
                 max_sessions=256, idle_ttl=300.0,
                 default_matcher="rete", default_backend=None,
                 default_strategy="lex", default_on_error="halt",
                 fault_factory=None,
                 clock=time.monotonic):
        self.rule_bases = rule_bases
        self.wal_root = str(wal_root) if wal_root is not None else None
        self.fsync = fsync
        #: Optional ``session_id -> FaultInjector|None`` hook the chaos
        #: layer uses to arm durable sessions with lifecycle faults.
        self.fault_factory = fault_factory
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.default_matcher = default_matcher
        self.default_backend = default_backend
        self.default_strategy = default_strategy
        self.default_on_error = default_on_error
        self.clock = clock
        self._sessions = {}
        self._lock = threading.RLock()
        self.created = 0
        self.resumed = 0
        self.evicted_idle = 0
        self.evicted_lru = 0
        self.closed = 0
        self.checkpoint_failures = 0

    # -- lookup ------------------------------------------------------------

    def get(self, session_id, touch=True):
        """The live session for *session_id*, or raise ServiceError."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.closed:
                raise ServiceError(f"no session named {session_id!r}")
            if touch:
                session.touch()
            return session

    def checkout(self, session_id, max_pending=None):
        """Atomically look up *session_id* and claim one pending slot.

        Lookup, the per-session admission check, and the ``pending``
        increment happen under the registry lock — the same lock the
        idle sweeper and LRU evictor take — so a checked-out session
        can never be evicted mid-request (eviction only considers
        ``pending == 0`` sessions).  Pair with :meth:`checkin` in a
        ``finally``.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.closed:
                raise ServiceError(f"no session named {session_id!r}")
            if max_pending is not None and session.pending >= max_pending:
                raise AdmissionError(
                    f"session {session_id!r} queue is full "
                    f"({session.pending} pending); retry shortly",
                )
            session.pending += 1
            session.touch()
            return session

    def checkin(self, session):
        """Release a :meth:`checkout` claim."""
        with self._lock:
            session.pending -= 1
            session.touch()

    def __contains__(self, session_id):
        with self._lock:
            session = self._sessions.get(session_id)
            return session is not None and not session.closed

    def __len__(self):
        with self._lock:
            return len(self._sessions)

    def ids(self):
        with self._lock:
            return sorted(self._sessions)

    def sessions(self):
        with self._lock:
            return list(self._sessions.values())

    # -- creation ----------------------------------------------------------

    def _session_wal_dir(self, session_id):
        if self.wal_root is None:
            return None
        return os.path.join(self.wal_root, session_id)

    def create(self, session_id, source, *, matcher=None, backend=None,
               strategy=None, on_error=None, durable=True, resume=False,
               key=None):
        """Admit a new tenant; returns ``(session, rulebase_hit)``.

        The engine is stamped out of the shared rule base for
        ``(source, matcher, backend)``.  With a ``wal_root`` configured
        and *durable*, the session logs to its own WAL directory, and
        the program's frames are committed (one fsync under ``batch``)
        before this returns; *resume* recovers an evicted/crashed
        session from that directory instead (the request's program
        must match the logged one — the log is authoritative).  A fresh create whose
        directory already holds history raises
        :class:`~repro.errors.DurabilityError` naming the session.

        *key* is the request's idempotency key: a retried create that
        finds its session already live (the first attempt succeeded
        but the response was lost) returns the existing session with
        ``rulebase_hit == "deduped"`` instead of raising
        "already exists".
        """
        validate_session_id(session_id)
        matcher = matcher or self.default_matcher
        backend = backend or self.default_backend
        strategy = strategy or self.default_strategy
        on_error = on_error or self.default_on_error
        with self._lock:
            if session_id in self:
                existing = self._sessions[session_id]
                if key is not None and existing.create_key == key:
                    existing.deduped += 1
                    return existing, "deduped"
                raise ServiceError(
                    f"session {session_id!r} already exists"
                )
            if len(self._sessions) >= self.max_sessions:
                self._evict_lru_locked()
            wal_dir = self._session_wal_dir(session_id) if durable else None
            fault = None
            if self.fault_factory is not None and wal_dir is not None:
                fault = self.fault_factory(session_id)
            resumed = False
            if resume:
                if wal_dir is None:
                    raise ServiceError(
                        "resume requires a wal_root-configured server "
                        "and a durable session"
                    )
                from repro.durability import (
                    DurabilityConfig, recover_engine,
                )
                from repro.engine.engine import RuleEngine

                engine = recover_engine(
                    RuleEngine, wal_dir, on_error=on_error,
                    durability=DurabilityConfig(
                        wal_dir, fsync=self.fsync, label=session_id,
                        fault=fault,
                    ),
                )
                base = None
                resumed = True
                self.resumed += 1
            else:
                base, hit = self.rule_bases.get(
                    source, matcher=matcher, backend=backend,
                )
                durability = None
                if wal_dir is not None:
                    from repro.durability import DurabilityConfig

                    durability = DurabilityConfig(
                        wal_dir, fsync=self.fsync, label=session_id,
                        fault=fault,
                    )
                engine = base.build_engine(
                    strategy=strategy, durability=durability,
                    on_error=on_error,
                )
            session = Session(
                session_id, engine, rule_base=base, wal_dir=wal_dir,
                resumed=resumed, create_key=key, clock=self.clock,
            )
            self._sessions[session_id] = session
            self.created += 1
            if resumed:
                return session, False
            return session, hit

    # -- eviction ----------------------------------------------------------

    def count_checkpoint_failure(self):
        """Count a checkpoint that failed where no request reports it:
        on a close, an eviction, a drain, or deferred after a response
        (any thread)."""
        with self._lock:
            self.checkpoint_failures += 1

    def _close(self, session, checkpoint):
        if session.close(checkpoint=checkpoint) is not None:
            self.count_checkpoint_failure()

    def close_session(self, session_id, checkpoint=False):
        """Close and drop one session (client-initiated)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ServiceError(f"no session named {session_id!r}")
        self._close(session, checkpoint)
        self.closed += 1
        return session

    def _evict_lru_locked(self):
        """Evict the least recently used idle session (caller holds
        the lock); raise AdmissionError when every session is busy."""
        candidates = [
            s for s in self._sessions.values() if s.pending == 0
        ]
        if not candidates:
            raise AdmissionError(
                f"session table full ({self.max_sessions} sessions, "
                f"all busy); retry shortly",
                retry_after=0.1,
            )
        victim = min(candidates, key=lambda s: s.last_used)
        del self._sessions[victim.id]
        self._close(victim, True)
        self.evicted_lru += 1
        return victim.id

    def sweep_idle(self):
        """Evict sessions idle past ``idle_ttl``; returns their ids.

        Busy sessions (pending requests) are never swept, whatever
        their age.  Swept sessions are checkpointed so a resume is
        cheap.
        """
        if self.idle_ttl is None:
            return []
        with self._lock:
            expired = [
                s for s in self._sessions.values()
                if s.pending == 0 and s.idle_for() >= self.idle_ttl
            ]
            for session in expired:
                del self._sessions[session.id]
        for session in expired:
            self._close(session, True)
            self.evicted_idle += 1
        return [s.id for s in expired]

    def close_all(self, checkpoint=False):
        """Close every session (server shutdown).

        *checkpoint* is the drain path: every durable session writes a
        checkpoint first so the next server generation resumes each
        tenant from a short WAL tail.
        """
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            self._close(session, checkpoint)
            self.closed += 1

    def stats(self):
        """JSON-safe registry counters."""
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "created": self.created,
                "resumed": self.resumed,
                "evicted_idle": self.evicted_idle,
                "evicted_lru": self.evicted_lru,
                "closed": self.closed,
                "checkpoint_failures": self.checkpoint_failures,
                "max_sessions": self.max_sessions,
                "idle_ttl": self.idle_ttl,
            }
