"""A blocking NDJSON client for the rule service, with retry semantics.

:class:`ServiceClient` is deliberately small — a socket, a buffered
line reader, and one method per protocol op — because it is what the
tests, the load generator, and the differential harness all drive the
server with.  It raises :class:`ServiceClientError` for any non-``ok``
terminal response *except* ``busy``, which raises
:class:`ServiceBusyError` carrying ``retry_after`` so callers can
implement backoff (``retry=True`` on the op methods does it for you).

Resilience semantics (``retry=True``):

* **Retryable responses** — ``busy``, ``deadline``, and
  ``unavailable`` mean "not applied, try again"; the client sleeps a
  jittered multiple of the server's ``retry_after`` hint and resends.
* **Connection failures** — a stale socket (server restarted), EOF
  mid-stream (injected disconnect), or a torn line reconnects
  transparently and resends *when that is safe*: always if the request
  never finished sending (the server only processes complete lines),
  and for completed sends only if the op is non-mutating or carries an
  idempotency ``key`` — an ambiguous mutating request without a key is
  surfaced to the caller rather than risking double application.
  Reconnect-path retries use jittered exponential backoff (there is no
  server hint to honour).
* **Budgets** — both a retry-count budget (*max_retries*) and a time
  budget (*retry_budget_s*) bound the total effort; whichever runs out
  first lets the last error escape.
* **Idempotency keys** — pass ``idempotent=True`` to a mutating op (or
  an explicit ``key=``) and the client attaches a unique key that
  stays fixed across retries, upgrading ambiguous-failure retries to
  exactly-once: the server answers a duplicate from its WAL-backed
  journal (response carries ``deduped: true``).  Keys are opt-in so a
  keyless client's WAL stream is byte-identical to an embedded
  engine's.

Streaming ops (``run``, ``facts``) collect the events that precede
the terminal response and return them alongside it, one dict per
firing, write or fact: the client expands the server's row-encoded
batch lines (:func:`~repro.service.protocol.expand_batch`).  Retries
clear and refill the event list (a deduplicated retry streams none).
"""

from __future__ import annotations

import os
import random
import socket
import time

from repro.service.protocol import (
    MAX_LINE_BYTES,
    RETRYABLE_CODES,
    decode_line,
    encode_line,
    expand_batch,
)

#: Ops that mutate session state; everything else can always be
#: resent after an ambiguous connection failure.
MUTATING_OPS = frozenset({"create", "assert", "run", "close",
                          "add_rule", "remove_rule", "replace_rule"})


class ServiceClientError(RuntimeError):
    """A terminal error response from the server."""

    def __init__(self, response):
        self.response = response
        self.code = response.get("error", "internal")
        super().__init__(
            f"[{self.code}] {response.get('message', 'unknown error')}"
        )

    @property
    def retry_after(self):
        return float(self.response.get("retry_after", 0.05))


class ServiceBusyError(ServiceClientError):
    """The server shed this request; retry after ``retry_after``
    (inherited from :class:`ServiceClientError`)."""


class AmbiguousRequestError(ServiceClientError):
    """The connection died after a mutating request was fully sent and
    before its terminal response arrived: the server may or may not
    have applied it.  Retry with an idempotency key (``idempotent=True``)
    to make this case safe, or reconcile out of band."""

    def __init__(self, op, cause):
        self.op = op
        self.cause = cause
        RuntimeError.__init__(
            self,
            f"connection lost mid-{op}; the request may or may not "
            f"have been applied ({cause}) — retry with an idempotency "
            f"key for exactly-once semantics"
        )
        self.response = {}
        self.code = "ambiguous"


class ServiceClient:
    """One connection to a :class:`~repro.service.server.RuleService`."""

    def __init__(self, host, port, timeout=30.0, *, max_retries=50,
                 retry_budget_s=30.0, backoff_base=0.02,
                 backoff_max=1.0, auto_reconnect=True, seed=None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_budget_s = retry_budget_s
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.auto_reconnect = auto_reconnect
        self._rng = random.Random(seed)
        self._sock = None
        self._reader = None
        self._next_id = 0
        self._key_counter = 0
        self._key_prefix = f"c{os.getpid():x}-{id(self) & 0xFFFFFF:x}"
        #: Total seconds slept honouring backpressure and backoff.
        self.backoff_s = 0.0
        self.busy_retries = 0
        #: Successful reconnects after a connection failure.
        self.reconnects = 0
        #: Resends after connection failures / retryable errors
        #: (``busy`` retries are counted separately).
        self.retries = 0
        #: Responses answered from the server's idempotency journal.
        self.deduped = 0
        self._connect()

    # -- connection management --------------------------------------------

    def _connect(self):
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            reader = sock.makefile("rb")
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._reader = reader

    def _disconnect(self):
        reader, sock = self._reader, self._sock
        self._reader = None
        self._sock = None
        for handle in (reader, sock):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass

    def _ensure_connected(self):
        if self._sock is None:
            self._connect()
            self.reconnects += 1

    def close(self):
        self._disconnect()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _read_line(self):
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            # A torn write: the server (or the chaos layer) dropped the
            # connection mid-line.  Never parse a partial line.
            raise ConnectionError("connection closed mid-line")
        return decode_line(line)

    def new_key(self):
        """A fresh idempotency key, unique within this process."""
        self._key_counter += 1
        return f"{self._key_prefix}-{self._key_counter}"

    def _sleep_backoff(self, delay):
        delay = min(delay, self.backoff_max) * (
            0.5 + self._rng.random() / 2
        )
        self.backoff_s += delay
        time.sleep(delay)

    def request(self, op, *, events=None, retry=False, max_retries=None,
                key=None, idempotent=False, deadline_ms=None, **fields):
        """Send one request; return the terminal response object.

        *events*, if a list, collects the events streamed before the
        terminal response, each batch line expanded to one dict per
        event.  *retry* resends through retryable
        error responses (``busy``/``deadline``/``unavailable``,
        honouring their ``retry_after``) within the retry budgets.
        Connection failures reconnect and resend independently of
        *retry* whenever resending is safe (see the module docstring).
        *idempotent* attaches a fresh idempotency key (fixed across
        this call's retries) to a mutating op; *key* supplies one
        explicitly.  *deadline_ms* asks the server to abandon the
        request if still queued after that many milliseconds.
        """
        if key is None and idempotent and op in MUTATING_OPS:
            key = self.new_key()
        budget = self.max_retries if max_retries is None else max_retries
        attempts = 0
        reconnect_attempts = 0
        started = time.monotonic()

        def spend(kind):
            nonlocal attempts
            attempts += 1
            if attempts > budget:
                return False
            if time.monotonic() - started > self.retry_budget_s:
                return False
            if events is not None:
                events.clear()
            return True

        while True:
            sent = False
            try:
                sent_flag = []
                response = self._request_once(
                    op, events=events, key=key, deadline_ms=deadline_ms,
                    sent_flag=sent_flag, **fields
                )
                if response.get("deduped"):
                    self.deduped += 1
                return response
            except ServiceBusyError as busy:
                if not retry or not spend("busy"):
                    raise
                self.busy_retries += 1
                self._sleep_backoff(max(busy.retry_after, 0.005))
            except ServiceClientError as error:
                if (error.code not in RETRYABLE_CODES or not retry
                        or not spend("retryable")):
                    raise
                self.retries += 1
                self._sleep_backoff(max(error.retry_after, 0.005))
            except (ConnectionError, socket.timeout, OSError) as error:
                sent = bool(sent_flag)
                self._disconnect()
                if not self.auto_reconnect:
                    raise
                # A fully-sent mutating request may have been applied
                # before the connection died; only a key (or a
                # non-mutating op) makes resending safe.
                if sent and op in MUTATING_OPS and key is None:
                    raise AmbiguousRequestError(op, error) from error
                if not spend("reconnect"):
                    raise
                self.retries += 1
                self._sleep_backoff(
                    self.backoff_base * (2 ** min(attempts, 10))
                )

    def _request_once(self, op, *, events=None, key=None,
                      deadline_ms=None, sent_flag=None, **fields):
        self._ensure_connected()
        self._next_id += 1
        request_id = self._next_id
        payload = {"op": op, "id": request_id}
        if key is not None:
            payload["key"] = key
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        payload.update(
            (k, v) for k, v in fields.items() if v is not None
        )
        self._sock.sendall(encode_line(payload))
        if sent_flag is not None:
            # sendall either delivered every byte (including the
            # trailing newline) or raised — so reaching this point
            # means the server can have processed the request and the
            # failure mode from here on is ambiguous.
            sent_flag.append(True)
        while True:
            line = self._read_line()
            if "event" in line:
                if events is not None:
                    events += expand_batch(line)
                continue
            if line.get("ok"):
                return line
            if line.get("error") == "busy":
                raise ServiceBusyError(line)
            raise ServiceClientError(line)

    # -- ops ---------------------------------------------------------------

    def ping(self):
        return self.request("ping")

    def health(self):
        """The server's readiness/drain state (never load-shed)."""
        return self.request("health")

    def create(self, session, program, *, matcher=None, backend=None,
               strategy=None, on_error=None, durable=True, resume=False,
               retry=False, key=None, idempotent=False,
               deadline_ms=None):
        return self.request(
            "create", session=session, program=program, matcher=matcher,
            backend=backend, strategy=strategy,
            on_error=on_error, durable=durable, resume=resume or None,
            retry=retry, key=key,
            idempotent=idempotent, deadline_ms=deadline_ms,
        )

    def assert_facts(self, session, facts, *, retry=False, key=None,
                     idempotent=False, deadline_ms=None):
        """*facts* is a list of ``(wme_class, {attribute: value})``; a
        dict is sent as it is, any other mapping as a dict of it."""
        return self.request(
            "assert", session=session,
            facts=[
                fact if isinstance(fact[1], dict)
                else (fact[0], dict(fact[1]))
                for fact in facts
            ],
            retry=retry,
            key=key, idempotent=idempotent, deadline_ms=deadline_ms,
        )

    def run(self, session, *, limit=None, wall_clock=None, parallel=False,
            retry=False, key=None, idempotent=False, deadline_ms=None):
        """``(terminal_response, events)`` for one run request."""
        events = []
        response = self.request(
            "run", session=session, limit=limit, wall_clock=wall_clock,
            parallel=parallel or None, events=events, retry=retry,
            key=key, idempotent=idempotent, deadline_ms=deadline_ms,
        )
        return response, events

    def facts(self, session, wme_class=None, *, retry=False):
        events = []
        response = self.request(
            "facts", session=session, events=events, retry=retry,
            **({"class": wme_class} if wme_class else {}),
        )
        return response, events

    def add_rule(self, session, source, *, retry=False, key=None,
                 idempotent=False, deadline_ms=None):
        """Hot-add one ``(p ...)`` rule to a live session."""
        return self.request(
            "add_rule", session=session, source=source, retry=retry,
            key=key, idempotent=idempotent, deadline_ms=deadline_ms,
        )

    def remove_rule(self, session, rule, *, retry=False, key=None,
                    idempotent=False, deadline_ms=None):
        """Excise one rule (by name) from a live session."""
        return self.request(
            "remove_rule", session=session, rule=rule, retry=retry,
            key=key, idempotent=idempotent, deadline_ms=deadline_ms,
        )

    def replace_rule(self, session, rule, source, *, retry=False,
                     key=None, idempotent=False, deadline_ms=None):
        """Atomically swap the rule named *rule* for *source*."""
        return self.request(
            "replace_rule", session=session, rule=rule, source=source,
            retry=retry, key=key, idempotent=idempotent,
            deadline_ms=deadline_ms,
        )

    def checkpoint(self, session, *, retry=False):
        return self.request("checkpoint", session=session, retry=retry)

    def close_session(self, session, *, checkpoint=False, retry=False,
                      key=None, idempotent=False):
        return self.request(
            "close", session=session,
            checkpoint=checkpoint or None, retry=retry,
            key=key, idempotent=idempotent,
        )

    def stats(self):
        return self.request("stats")
