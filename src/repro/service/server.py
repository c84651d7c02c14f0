"""The rule service: a long-lived, multi-tenant engine server.

:class:`RuleService` is an asyncio front end over the embedded engine:
clients connect over TCP, speak the NDJSON protocol
(:mod:`repro.service.protocol`), and drive per-session
:class:`~repro.engine.engine.RuleEngine` instances owned by a
:class:`~repro.service.session.SessionRegistry`.  Engine work —
parsing, matching, firing, checkpointing — is synchronous Python, so
every engine call runs on a bounded :class:`ThreadPoolExecutor` while
the event loop keeps accepting connections; a per-session asyncio lock
serialises each tenant's requests (the engine is not reentrant), and
fact batches ingest transactionally so all service traffic rides the
batched propagation path and a failed batch rolls back whole.

**Admission control.**  Two bounded queues implement backpressure: a
global in-flight cap (``global_queue``) and a per-session pending cap
(``session_queue``).  A request arriving past either is rejected
immediately with a ``busy`` response carrying ``retry_after`` — the
server never buffers unbounded work, it tells the client to back off
(load shedding at the edge, the only stable answer once the executor
saturates).  Shedding is tiered: control ops (``ping``/``health``/
``stats``) are never shed, and ``create`` sheds earlier (at 80% of the
global queue) than work on existing sessions, so overload pressure
falls on new tenants before established ones; ``retry_after`` scales
with how far past capacity the server is.

**Watchdogs and deadlines.**  Every ``run`` is guarded by the
reliability layer's firing limit and wall-clock budget, capped at the
server's configured maximums — a tenant may ask for less, never more.
A request carrying ``deadline_ms`` is additionally anchored to an
absolute deadline at receipt: if it expires while the request is still
queued the server answers ``deadline`` (nothing was applied, safe to
retry), and a running ``run`` is stopped by the deadline-aware
watchdog (``stopped="deadline"`` in an ok response).

**Exactly-once.**  A mutating request may carry an idempotency
``key``.  Completed responses are recorded in a per-session journal
that is WAL-backed for durable sessions (an ``assert``'s key rides
inside its delta record; a ``run``'s summary is a ``j`` record), so a
retry after an ambiguous failure — connection torn down before the
terminal line arrived, a server crash mid-request — is answered from
the journal instead of re-applied, across eviction, resume, and crash
recovery.

**Graceful degradation.**  A per-session circuit breaker trips
repeatedly-failing sessions into quarantine (``busy`` with
``retry_after`` = remaining cooldown, then a half-open probe);
:meth:`RuleService.drain` stops accepting, finishes in-flight work,
and checkpoints every session for fast resume by the next server
generation.  The optional chaos layer (:mod:`repro.service.chaos`)
injects wire and lifecycle faults to prove all of the above under
fire.

See ``docs/SERVICE.md`` for the operator-facing story.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from time import monotonic

from repro.engine.conflict import strategy_named
from repro.engine.reliability import commit_scope
from repro.errors import (
    AdmissionError,
    DeadlineError,
    ReproError,
    ServiceError,
    WalError,
)
from repro.match import matcher_spec
from repro.service import protocol
from repro.service.chaos import ChaosInjector
from repro.service.rulebase import RuleBaseCache
from repro.service.session import SessionRegistry, journal_put
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    batch_lines,
    encode_line,
    error_response,
    ok_response,
)


#: Storage backends a served session may name.  A file-backed
#: ``sqlite:PATH`` is not one: every DIPS session would open that same
#: file and re-create the same COND tables, and a client could make the
#: server create a file at any path it can write.
SERVICE_BACKENDS = ("memory", "sqlite")


def _check_backend(spec):
    # Checked by name: opening a backend to validate it would create
    # the file a ``sqlite:PATH`` spec names.
    if spec not in SERVICE_BACKENDS:
        raise ServiceError(
            f"unknown backend {spec!r} (the service runs "
            f"{' or '.join(SERVICE_BACKENDS)})"
        )


#: ``create`` fields naming engine configuration, each with the call
#: that raises a typed error for a value it does not know.
_ENGINE_CONFIG_CHECKS = (
    ("matcher", matcher_spec),
    ("strategy", strategy_named),
    ("backend", _check_backend),
)

#: Ops served even while draining and never load-shed.
_CONTROL_OPS = frozenset({"ping", "health", "stats", "close"})

#: Response bytes gathered per socket write (and ``drain``): a
#: ``run``'s response goes out in one write, and a large ``facts``
#: dump in writes of about this size, with the event loop free between
#: them.
_WRITE_BYTES = 64 * 1024

#: Session-scoped work ops whose failures feed the circuit breaker.
_SESSION_OPS = frozenset({"assert", "run", "facts", "checkpoint",
                          "add_rule", "remove_rule", "replace_rule"})


class ServiceConfig:
    """Configuration for one :class:`RuleService`.

    *host*/*port* — bind address (port 0 picks an ephemeral port);
    *wal_root* — per-session WAL directories live under it (None
    disables durability);
    *fsync* — the sessions' WAL fsync policy;
    *matcher*/*backend*/*strategy*/*on_error* — per-session
    defaults a ``create`` may override (*backend* must be None or one
    of :data:`SERVICE_BACKENDS`);
    *max_sessions*/*idle_ttl*/*sweep_interval* — registry sizing and
    the idle-eviction cadence (seconds);
    *session_queue*/*global_queue* — admission bounds (pending
    requests per session / server-wide);
    *engine_workers* — executor threads running engine calls;
    *run_limit*/*run_wall_clock* — per-request watchdog caps;
    *chaos* — a :class:`~repro.service.chaos.ChaosConfig` (or spec
    string) enabling fault injection, None for a quiet server;
    *breaker_threshold*/*breaker_cooldown* — consecutive failures that
    trip a session's circuit breaker, and how long it stays open;
    *journal_limit* — idempotency-journal entries retained per session;
    *drain_grace* — seconds :meth:`RuleService.drain` waits for
    in-flight requests before checkpointing and closing sessions.
    """

    __slots__ = ("host", "port", "wal_root", "fsync", "matcher",
                 "backend", "strategy", "on_error",
                 "max_sessions", "idle_ttl", "sweep_interval",
                 "session_queue", "global_queue", "engine_workers",
                 "run_limit", "run_wall_clock", "chaos",
                 "breaker_threshold", "breaker_cooldown",
                 "journal_limit", "drain_grace")

    def __init__(self, host="127.0.0.1", port=0, wal_root=None,
                 fsync="batch", matcher="rete", backend=None,
                 strategy="lex", on_error="halt",
                 max_sessions=256, idle_ttl=300.0, sweep_interval=5.0,
                 session_queue=16, global_queue=128, engine_workers=4,
                 run_limit=10_000, run_wall_clock=30.0, chaos=None,
                 breaker_threshold=5, breaker_cooldown=1.0,
                 journal_limit=512, drain_grace=10.0):
        self.host = host
        self.port = port
        self.wal_root = wal_root
        self.fsync = fsync
        self.matcher = matcher
        if backend is not None:
            _check_backend(backend)
        self.backend = backend
        self.strategy = strategy
        self.on_error = on_error
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.sweep_interval = sweep_interval
        self.session_queue = session_queue
        self.global_queue = global_queue
        self.engine_workers = engine_workers
        self.run_limit = run_limit
        self.run_wall_clock = run_wall_clock
        self.chaos = chaos
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.journal_limit = journal_limit
        self.drain_grace = drain_grace


class _CircuitBreaker:
    """Per-session failure tracker: closed → open → half-open.

    ``threshold`` consecutive engine/internal/unavailable failures
    trip the breaker; while open, requests are rejected up front with
    ``busy`` + ``retry_after`` (the remaining cooldown) instead of
    burning an executor slot on a session that keeps failing.  After
    the cooldown one probe request is admitted: success closes the
    breaker, another failure re-opens it for a fresh cooldown.
    """

    __slots__ = ("failures", "open_until", "trips")

    def __init__(self):
        self.failures = 0
        self.open_until = None
        self.trips = 0

    @property
    def is_open(self):
        return self.open_until is not None

    def check(self, session_id, now):
        if self.open_until is not None and now < self.open_until:
            raise AdmissionError(
                f"session {session_id!r} is quarantined by its circuit "
                f"breaker ({self.failures} consecutive failures)",
                retry_after=max(0.001, round(self.open_until - now, 3)),
            )
        # Open but cooled down: fall through, admitting this request
        # as the half-open probe.

    def record_failure(self, threshold, cooldown, now):
        """Count one failure; returns True when the breaker (re)trips."""
        self.failures += 1
        if self.failures >= threshold:
            self.open_until = now + cooldown
            self.trips += 1
            return True
        return False

    def record_success(self):
        self.failures = 0
        self.open_until = None


class RuleService:
    """The server: connection handling, admission, dispatch."""

    def __init__(self, config=None):
        self.config = config if config is not None else ServiceConfig()
        self.chaos = (
            ChaosInjector(self.config.chaos)
            if self.config.chaos is not None else None
        )
        self.rule_bases = RuleBaseCache()
        self.registry = SessionRegistry(
            self.rule_bases,
            wal_root=self.config.wal_root,
            fsync=self.config.fsync,
            max_sessions=self.config.max_sessions,
            idle_ttl=self.config.idle_ttl,
            default_matcher=self.config.matcher,
            default_backend=self.config.backend,
            default_strategy=self.config.strategy,
            default_on_error=self.config.on_error,
            fault_factory=(
                self.chaos.fault_for_session
                if self.chaos is not None else None
            ),
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.engine_workers,
            thread_name_prefix="repro-service",
        )
        self._session_locks = {}
        self._breakers = {}
        self.global_pending = 0
        self.counters = Counter()
        # Deferred self-checkpoints in flight (asyncio keeps only weak
        # references to tasks).
        self._deferred = set()
        self._server = None
        self._sweeper = None
        self._connections = {}  # handler task -> its StreamWriter
        self._draining = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        if self.config.sweep_interval and self.config.idle_ttl:
            self._sweeper = asyncio.create_task(self._sweep_loop())
        return self

    @property
    def address(self):
        """``(host, port)`` actually bound (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def draining(self):
        return self._draining

    async def serve_forever(self):
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def begin_drain(self):
        """Enter drain mode: stop accepting connections and new work.

        Idempotent.  Control ops (``ping``/``health``/``stats``/
        ``close``) keep working on existing connections; everything
        else is rejected with ``busy`` so clients fail over.  In-flight
        requests are unaffected.
        """
        if self._draining:
            return
        self._draining = True
        self.counters["drains"] += 1
        await self._stop_sweeper()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, grace=None):
        """Graceful shutdown: drain, finish in-flight, checkpoint all.

        Waits up to *grace* seconds (default ``config.drain_grace``)
        for in-flight requests to complete, then checkpoints and
        closes every session — so the next server generation resumes
        each durable tenant from a short WAL tail.
        """
        await self.begin_drain()
        grace = self.config.drain_grace if grace is None else grace
        deadline = monotonic() + grace
        while self.global_pending > 0 and monotonic() < deadline:
            await asyncio.sleep(0.02)
        if not self._closed:
            self._closed = True
            await asyncio.get_running_loop().run_in_executor(
                self._executor,
                lambda: self.registry.close_all(checkpoint=True),
            )
            self._executor.shutdown(wait=True)

    async def stop(self, drain=False):
        """Stop accepting, close every session cleanly, release pools.

        With *drain* the shutdown is graceful (see :meth:`drain`);
        without, sessions close immediately and un-checkpointed state
        survives only in their WALs.
        """
        if drain:
            await self.drain()
        await self._stop_sweeper()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._close_connections()
        await asyncio.gather(*self._deferred, return_exceptions=True)
        if not self._closed:
            self._closed = True
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self.registry.close_all
            )
            self._executor.shutdown(wait=True)

    async def _close_connections(self):
        """Hang up on every open connection and wait for its handler.

        A handler left parked in ``readline`` would be cancelled by
        ``asyncio.run`` at exit, and the stream protocol's done-callback
        prints that ``CancelledError`` as a traceback per connection.
        Closing the writer ends the handler through its own EOF path.
        """
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)

    async def _stop_sweeper(self):
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None

    async def _sweep_loop(self):
        while True:
            await asyncio.sleep(self.config.sweep_interval)
            evicted = await self._in_executor(self.registry.sweep_idle)
            if evicted:
                self.counters["sessions_swept"] += len(evicted)
                for session_id in evicted:
                    self._session_locks.pop(session_id, None)

    # -- plumbing ----------------------------------------------------------

    async def _in_executor(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _session_lock(self, session_id):
        lock = self._session_locks.get(session_id)
        if lock is None:
            lock = self._session_locks[session_id] = asyncio.Lock()
        return lock

    def _admit_global(self, tier="work"):
        """Tiered overload shedding: ``create`` sheds at 80% of the
        global queue so established sessions keep service while new
        tenants back off; ``retry_after`` grows with the overload."""
        cap = self.config.global_queue
        if tier == "create" and cap >= 5:
            cap = (cap * 4) // 5
        if self.global_pending >= cap:
            load = self.global_pending / max(1, self.config.global_queue)
            raise AdmissionError(
                f"server at capacity ({self.global_pending} requests "
                f"in flight, {tier} tier admits {cap})",
                retry_after=round(0.05 * (1.0 + load), 3),
            )

    # -- resilience plumbing -----------------------------------------------

    def _breaker_check(self, session_id):
        breaker = self._breakers.get(session_id)
        if breaker is not None:
            breaker.check(session_id, monotonic())

    def _breaker_failure(self, session_id):
        if not isinstance(session_id, str):
            return
        breaker = self._breakers.setdefault(session_id, _CircuitBreaker())
        if breaker.record_failure(self.config.breaker_threshold,
                                  self.config.breaker_cooldown,
                                  monotonic()):
            self.counters["breaker_trips"] += 1

    def _breaker_success(self, session_id):
        breaker = self._breakers.get(session_id)
        if breaker is not None:
            breaker.record_success()

    @staticmethod
    def _request_key(request):
        key = request.get("key")
        if key is None:
            return None
        if not isinstance(key, str) or not key or len(key) > 128:
            raise ServiceError(
                "'key' must be a non-empty string of at most 128 "
                "characters"
            )
        return key

    async def _drop_session(self, session_id):
        """Close a session without a checkpoint, as a crash would; its
        next request answers ``no_session`` and a resume recovers it
        from its log."""
        def drop():
            with contextlib.suppress(ServiceError):
                self.registry.close_session(session_id)

        await self._in_executor(drop)
        self._session_locks.pop(session_id, None)

    async def _chaos_kill(self, session_id):
        """Lifecycle fault: tear the session down mid-request (behind
        a deferred checkpoint that holds its lock)."""
        async with self._session_lock(session_id):
            await self._drop_session(session_id)
        self.counters["chaos_kills"] += 1

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader, writer):
        self.counters["connections"] += 1
        self._connections[asyncio.current_task()] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line: unrecoverable framing, drop the
                    # connection after telling the client why.
                    self.counters["protocol_errors"] += 1
                    await self._send(writer, error_response(
                        None, "protocol",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    ))
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    request = protocol.decode_line(stripped)
                except ValueError as error:
                    self.counters["protocol_errors"] += 1
                    await self._send(writer, error_response(
                        None, "protocol", f"malformed request: {error}",
                    ))
                    continue
                await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[asyncio.current_task()]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request, writer):
        # Keys with a leading underscore are the server's own (the
        # anchored deadline, a deferred checkpoint's event).
        for key in [key for key in request if key.startswith("_")]:
            del request[key]
        request_id = request.get("id")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if op else None
        self.counters["requests"] += 1
        if handler is None or not str(op).isidentifier():
            self.counters["protocol_errors"] += 1
            await self._send(writer, error_response(
                request_id, "bad_request", f"unknown op {op!r}",
            ))
            return
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None:
            try:
                # Anchor the relative deadline at receipt; queue waits
                # and the run watchdog all measure against this instant.
                request["_deadline"] = (
                    monotonic() + float(deadline_ms) / 1000.0
                )
            except (TypeError, ValueError):
                await self._send(writer, error_response(
                    request_id, "bad_request",
                    f"'deadline_ms' must be a number, "
                    f"got {deadline_ms!r}",
                ))
                return
        if self._draining and op not in _CONTROL_OPS:
            self.counters["drain_rejections"] += 1
            await self._send(writer, error_response(
                request_id, "busy", "server is draining",
                retry_after=1.0, draining=True,
            ))
            return
        session_id = (
            request.get("session") if op in _SESSION_OPS else None
        )
        try:
            await handler(request, request_id, writer)
            if session_id is not None:
                self._breaker_success(session_id)
        except DeadlineError as error:
            self.counters["deadline_rejections"] += 1
            await self._send(writer, error_response(
                request_id, "deadline", str(error), retry_after=0.0,
            ))
        except AdmissionError as error:
            self.counters["busy_rejections"] += 1
            await self._send(writer, error_response(
                request_id, "busy", str(error),
                retry_after=error.retry_after,
            ))
        except ServiceError as error:
            code = (
                "no_session" if "no session named" in str(error)
                else "bad_request"
            )
            await self._send(writer, error_response(
                request_id, code, str(error),
            ))
        except (ConnectionResetError, BrokenPipeError):
            raise
        except (WalError, OSError) as error:
            # Transient I/O (ENOSPC on a WAL append, a torn segment):
            # the mutation was rolled back, so the request is safe to
            # retry once the condition clears.
            self.counters["unavailable_errors"] += 1
            self._breaker_failure(session_id)
            await self._send(writer, error_response(
                request_id, "unavailable",
                f"{type(error).__name__}: {error}", retry_after=0.1,
            ))
        except ReproError as error:
            self.counters["engine_errors"] += 1
            self._breaker_failure(session_id)
            await self._send(writer, error_response(
                request_id, "engine",
                f"{type(error).__name__}: {error}",
            ))
        except Exception as error:  # keep the server alive per request
            self.counters["internal_errors"] += 1
            self._breaker_failure(session_id)
            await self._send(writer, error_response(
                request_id, "internal",
                f"{type(error).__name__}: {error}",
            ))
        finally:
            # The response is written (or never will be): release a
            # checkpoint _with_session deferred until now.
            responded = request.get("_responded")
            if responded is not None:
                responded.set()

    async def _send(self, writer, obj):
        await self._send_lines(writer, (encode_line(obj),))

    async def _send_lines(self, writer, lines):
        """Write the encoded *lines*, taken one at a time, in writes of
        about :data:`_WRITE_BYTES`; the event loop runs between two
        writes of one response."""
        group = []
        size = 0
        for line in lines:
            if size >= _WRITE_BYTES:
                await self._write(writer, group, size)
                await asyncio.sleep(0)
                group = []
                size = 0
            group.append(line)
            size += len(line)
        if group:
            await self._write(writer, group, size)

    async def _write(self, writer, lines, size):
        """One ``write`` + ``drain`` of *lines*, *size* bytes in all.

        A chaos wire fault is drawn once per write; a ``partial`` one
        keeps a prefix that ends inside a line.
        """
        data = b"".join(lines)
        if self.chaos is not None:
            fault = self.chaos.wire_fault()
            if fault == "delay":
                await asyncio.sleep(self.chaos.delay_seconds())
            elif fault is not None:
                if fault == "partial":
                    cut = self.chaos.partial_prefix(size)
                    if data[cut - 1:cut] == b"\n":
                        cut -= 1
                    writer.write(data[:cut])
                    with contextlib.suppress(Exception):
                        await writer.drain()
                writer.close()
                raise ConnectionResetError(f"chaos wire fault: {fault}")
        writer.write(data)
        self.counters["response_lines"] += len(lines)
        self.counters["response_bytes"] += size
        await writer.drain()

    async def _with_session(self, request, fn):
        """Admit, check out, lock, and run ``fn(session)`` on the
        executor.

        Checkout (lookup + per-session admission + the ``pending``
        claim) is atomic under the registry lock, so the sweeper and
        LRU evictor can never checkpoint this session out from under
        an admitted request; a request that loses the race gets a
        clean ``no_session`` before any work happens.  The op runs in
        the session's commit scope: its one fsync follows its last WAL
        frame and precedes the first response byte, or fails it.  If
        the op left the session's log past its self-checkpoint bound,
        the lock passes to :meth:`_deferred_checkpoint` instead of
        being released.
        """
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ServiceError("request needs a 'session' field")
        self._breaker_check(session_id)
        self._admit_global()
        if self.chaos is not None and self.chaos.should_kill_session():
            await self._chaos_kill(session_id)
            raise ServiceError(
                f"no session named {session_id!r} (killed by chaos)"
            )
        session = self.registry.checkout(
            session_id, self.config.session_queue
        )
        self.global_pending += 1
        try:
            lock = self._session_lock(session_id)
            await lock.acquire()
            deferred = False
            try:
                deadline = request.get("_deadline")
                if deadline is not None and monotonic() >= deadline:
                    raise DeadlineError(
                        f"deadline expired while the request for "
                        f"session {session_id!r} was queued"
                    )
                if session.closed:
                    # A close op slipped in while we waited on the lock.
                    raise ServiceError(
                        f"no session named {session_id!r}"
                    )
                session.requests += 1
                result = await self._in_executor(_committed, fn, session)
                if session.checkpoint_due():
                    deferred = self._defer_checkpoint(
                        session, lock, request
                    )
                return result
            finally:
                if not deferred:
                    lock.release()
        finally:
            self.global_pending -= 1
            self.registry.checkin(session)

    def _defer_checkpoint(self, session, lock, request):
        """Hand *session*'s held lock to a task that checkpoints it
        once this request's response is written, so the checkpoint
        runs before the session's next request and delays no other
        session.  The task holds a checkout and a
        ``global_pending`` claim, as a request does, so neither
        eviction nor drain closes the session under it.  Returns False
        (nothing deferred) if the session is gone already."""
        try:
            self.registry.checkout(session.id)
        except ServiceError:
            return False
        self.global_pending += 1
        responded = request["_responded"] = asyncio.Event()
        task = asyncio.get_running_loop().create_task(
            self._deferred_checkpoint(session, lock, responded)
        )
        self._deferred.add(task)
        task.add_done_callback(self._deferred.discard)
        return True

    async def _deferred_checkpoint(self, session, lock, responded):
        """Checkpoint on the executor after the response; a failure is
        counted, never a request's."""
        try:
            await responded.wait()
            if not session.closed:
                await self._in_executor(session.engine.checkpoint)
                self.counters["self_checkpoints"] += 1
        except Exception:
            self.registry.count_checkpoint_failure()
            if session.crashed:
                # A simulated crash (chaos) killed the session's log.
                await self._drop_session(session.id)
        finally:
            lock.release()
            self.global_pending -= 1
            self.registry.checkin(session)

    # -- ops ---------------------------------------------------------------

    async def _op_ping(self, request, request_id, writer):
        await self._send(writer, ok_response(
            request_id, pong=True, protocol=PROTOCOL_VERSION,
        ))

    async def _op_health(self, request, request_id, writer):
        """Readiness/liveness for load balancers and drain orchestration
        — never shed, served even while draining."""
        await self._send(writer, ok_response(
            request_id,
            healthy=True,
            ready=self._server is not None and not self._draining,
            draining=self._draining,
            sessions=len(self.registry),
            pending=self.global_pending,
            open_breakers=sum(
                1 for b in self._breakers.values() if b.is_open
            ),
            protocol=PROTOCOL_VERSION,
        ))

    async def _op_create(self, request, request_id, writer):
        program = request.get("program", "")
        resume = bool(request.get("resume", False))
        if not isinstance(program, str) or (not program and not resume):
            raise ServiceError("create needs a 'program' string")
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ServiceError("create needs a 'session' field")
        self._validate_engine_config(request)
        key = self._request_key(request)
        self._breaker_check(session_id)
        self._admit_global(tier="create")
        self.global_pending += 1
        try:
            session, hit = await self._in_executor(
                lambda: self.registry.create(
                    session_id, program,
                    matcher=request.get("matcher"),
                    backend=request.get("backend"),
                    strategy=request.get("strategy"),
                    on_error=request.get("on_error"),
                    durable=bool(request.get("durable", True)),
                    resume=resume,
                    key=key,
                )
            )
        finally:
            self.global_pending -= 1
        deduped = hit == "deduped"
        if deduped:
            self.counters["deduped_requests"] += 1
        else:
            self.counters["sessions_created"] += 1
            if hit:
                self.counters["rulebase_hits"] += 1
        await self._send(writer, ok_response(
            request_id,
            session=session.id,
            rulebase_hit=bool(hit) and not deduped,
            resumed=session.resumed,
            rules=len(session.engine.rules),
            wm_size=len(session.engine.wm),
            durable=session.wal_dir is not None,
            **({"deduped": True} if deduped else {}),
            **_recovered(session),
        ))

    @staticmethod
    def _validate_engine_config(request):
        """Reject an unknown matcher/strategy/backend up front.

        A misspelt option is the client's mistake, not the session's:
        it answers ``bad_request`` before admission instead of failing
        inside the engine build, where it would count as an engine
        error against the session id's circuit breaker.
        """
        for field, check in _ENGINE_CONFIG_CHECKS:
            value = request.get(field)
            if value is None:
                continue
            try:
                check(value)
            except (ReproError, TypeError) as error:
                raise ServiceError(f"bad {field!r}: {error}") from None

    @staticmethod
    def _validate_facts(raw):
        if not isinstance(raw, list):
            raise ServiceError("'facts' must be a list of "
                               "[class, {attribute: value}] pairs")
        pairs = []
        for entry in raw:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], dict)):
                raise ServiceError(
                    f"bad fact entry {entry!r}: expected "
                    f"[class, {{attribute: value}}]"
                )
            pairs.append((entry[0], entry[1]))
        return pairs

    async def _op_assert(self, request, request_id, writer):
        pairs = self._validate_facts(request.get("facts"))
        key = self._request_key(request)
        journal_limit = self.config.journal_limit

        def ingest(session):
            return session.ingest_facts(
                pairs, key=key, journal_limit=journal_limit
            )

        response, deduped = await self._with_session(request, ingest)
        if deduped:
            self.counters["deduped_requests"] += 1
            response = dict(response, deduped=True)
        else:
            self.counters["facts_ingested"] += response.get("ingested", 0)
        await self._send(writer, ok_response(request_id, **response))

    async def _op_run(self, request, request_id, writer):
        limit = request.get("limit")
        wall_clock = request.get("wall_clock")
        parallel = bool(request.get("parallel", False))
        key = self._request_key(request)
        journal_limit = self.config.journal_limit
        deadline = request.get("_deadline")
        cap_limit = self.config.run_limit
        cap_clock = self.config.run_wall_clock
        limit = cap_limit if limit is None else min(int(limit), cap_limit)
        wall_clock = (
            cap_clock if wall_clock is None
            else min(float(wall_clock), cap_clock)
        )

        def execute(session):
            engine = session.engine
            if key is not None:
                cached = engine.request_journal.get(key)
                if cached is not None:
                    session.deduped += 1
                    return None, dict(cached)
            derived = []
            engine.wm.attach(derived.append)
            try:
                if parallel:
                    result = engine.run_parallel(
                        firing_budget=limit, wall_clock=wall_clock,
                        deadline=deadline,
                    )
                    fired = result.fired
                else:
                    fired = engine.run(
                        limit, wall_clock=wall_clock, deadline=deadline,
                    )
            finally:
                engine.wm.detach(derived.append)
            # The trace's new home is the response stream: drain it so
            # a long-lived session's memory stays bounded per-request.
            records = list(engine.tracer.firings)
            engine.tracer.firings.clear()
            outputs = list(engine.tracer.output)
            engine.tracer.output.clear()
            derived = [(event.sign, event.wme) for event in derived]
            session.firings += fired
            report = engine.last_run_report
            summary = {
                "fired": fired,
                "halted": engine.halted,
                "stopped": getattr(report, "reason", None),
                "wm_size": len(engine.wm),
                "conflict_set": len(engine.conflict_set),
            }
            if key is not None:
                journal_put(engine, key, summary, journal_limit)
                if engine.durability is not None:
                    # Best-effort durable journal entry: if this append
                    # fails, the in-memory entry still dedups retries
                    # on the live session, and after a crash the WAL's
                    # refraction replay makes a re-run fire nothing new.
                    with contextlib.suppress(WalError, OSError):
                        engine.durability.log_request(key, summary)
            return (records, outputs, derived), summary

        events, summary = await self._with_session(request, execute)
        if events is None:
            self.counters["deduped_requests"] += 1
            await self._send(writer, ok_response(
                request_id, deduped=True, **summary,
            ))
            return
        self.counters["firings"] += summary["fired"]
        await self._send_lines(writer, chain(
            batch_lines(request_id, *events),
            (encode_line(ok_response(request_id, **summary)),),
        ))

    async def _op_facts(self, request, request_id, writer):
        wme_class = request.get("class")

        def dump(session):
            wm = session.engine.wm
            wmes = wm.of_class(wme_class) if wme_class else wm
            return [("+", wme) for wme in wmes]

        facts = await self._with_session(request, dump)
        await self._send_lines(writer, chain(
            batch_lines(request_id, (), (), facts),
            (encode_line(ok_response(request_id, count=len(facts))),),
        ))

    # -- runtime rule surgery ----------------------------------------------
    #
    # Hot reload without restarting the tenant: the engine performs the
    # surgery (WAL-logging it so recovery replays the reload in order),
    # and the session re-keys onto a copy-on-write fork of its shared
    # rule base — untouched tenants keep sharing the parent entry, and
    # tenants reloading to the same program share one fork.

    async def _surgery(self, request, request_id, writer, action,
                       counter, *, source=None, rule_name=None):
        key = self._request_key(request)
        journal_limit = self.config.journal_limit

        def operate(session):
            return session.rule_surgery(
                action, source=source, rule_name=rule_name, key=key,
                journal_limit=journal_limit, rule_bases=self.rule_bases,
            )

        response, deduped = await self._with_session(request, operate)
        if deduped:
            self.counters["deduped_requests"] += 1
            response = dict(response, deduped=True)
        else:
            self.counters[counter] += 1
            if response.get("forked"):
                self.counters["rulebase_forks"] += 1
        await self._send(writer, ok_response(request_id, **response))

    @staticmethod
    def _rule_source(request, op):
        source = request.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ServiceError(f"{op} needs a 'source' rule string")
        return source

    @staticmethod
    def _rule_name(request, op):
        rule_name = request.get("rule")
        if not isinstance(rule_name, str) or not rule_name:
            raise ServiceError(f"{op} needs a 'rule' name")
        return rule_name

    async def _op_add_rule(self, request, request_id, writer):
        await self._surgery(
            request, request_id, writer, "add", "rules_added",
            source=self._rule_source(request, "add_rule"),
        )

    async def _op_remove_rule(self, request, request_id, writer):
        await self._surgery(
            request, request_id, writer, "remove", "rules_removed",
            rule_name=self._rule_name(request, "remove_rule"),
        )

    async def _op_replace_rule(self, request, request_id, writer):
        await self._surgery(
            request, request_id, writer, "replace", "rules_replaced",
            source=self._rule_source(request, "replace_rule"),
            rule_name=self._rule_name(request, "replace_rule"),
        )

    async def _op_checkpoint(self, request, request_id, writer):
        def checkpoint(session):
            if session.engine.durability is None:
                raise ServiceError(
                    f"session {session.id!r} is not durable "
                    f"(server has no wal_root, or created with "
                    f"durable=false)"
                )
            return session.engine.checkpoint()

        path = await self._with_session(request, checkpoint)
        self.counters["checkpoints"] += 1
        await self._send(writer, ok_response(request_id, path=str(path)))

    async def _op_close(self, request, request_id, writer):
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ServiceError("close needs a 'session' field")
        checkpoint = bool(request.get("checkpoint", False))
        # Behind the session's lock: a pipelined close waits for a
        # deferred checkpoint (and any queued request) to finish.
        try:
            async with self._session_lock(session_id):
                await self._in_executor(
                    lambda: self.registry.close_session(
                        session_id, checkpoint=checkpoint
                    )
                )
        finally:
            self._session_locks.pop(session_id, None)
        self._breakers.pop(session_id, None)
        self.counters["sessions_closed"] += 1
        await self._send(writer, ok_response(
            request_id, closed=session_id,
        ))

    async def _op_stats(self, request, request_id, writer):
        await self._send(writer, ok_response(
            request_id,
            server=dict(
                self.counters,
                # The process's cyclic-collector runs, youngest
                # generation first.
                gc_collections=[g["collections"] for g in gc.get_stats()],
            ),
            pending=self.global_pending,
            draining=self._draining,
            registry=self.registry.stats(),
            rule_bases=self.rule_bases.stats(),
            sessions=[s.info() for s in self.registry.sessions()],
            breakers={
                "open": sum(
                    1 for b in self._breakers.values() if b.is_open
                ),
                "tracked": len(self._breakers),
            },
            **(
                {"chaos": self.chaos.stats()}
                if self.chaos is not None else {}
            ),
        ))


def _recovered(session):
    """A resumed session's ``restored`` WMEs and ``replayed`` records."""
    report = session.engine.recovery_report if session.resumed else None
    if report is None:
        return {}
    return {"restored": report.restored_wmes,
            "replayed": report.replayed_records}


def _committed(fn, session):
    with commit_scope(session.engine):
        return fn(session)


class ServiceThread:
    """A :class:`RuleService` on a background thread (tests, benches,
    and the load generator's self-serve mode).

    ::

        with ServiceThread(ServiceConfig(port=0)) as server:
            client = ServiceClient(*server.address)
            ...
    """

    def __init__(self, config=None):
        self.config = config if config is not None else ServiceConfig()
        self.service = None
        self.address = None
        self._thread = None
        self._loop = None
        self._stop_event = None
        self._ready = threading.Event()
        self._error = None

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("service thread did not start in time")
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.service = RuleService(self.config)
        try:
            await self.service.start()
            self.address = self.service.address
        except Exception as error:  # surface bind failures to start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.service.stop()

    def begin_drain(self, timeout=30):
        """Enter drain mode from the caller's thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.begin_drain(), self._loop
        )
        return future.result(timeout=timeout)

    def drain(self, grace=None, timeout=60):
        """Graceful shutdown from the caller's thread (see
        :meth:`RuleService.drain`); the thread itself keeps running
        until :meth:`stop`."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(grace), self._loop
        )
        return future.result(timeout=timeout)

    def stop(self):
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
