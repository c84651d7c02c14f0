"""The rule service's wire protocol: newline-delimited JSON (NDJSON).

One request per line, one *terminal* response line per request, with
zero or more *event* lines streamed before it — firings and derived
facts flow back as they are drained, the Reaction-RuleML
request/response shape (a producer/consumer event exchange, not RPC
with a single opaque result).

Request::

    {"op": "<name>", "id": <any JSON, echoed back>, "session": "...",
     ...op-specific fields...}

Event lines carry ``"event"`` (``firing`` / ``write`` / ``fact``) and
echo the request ``id``; the terminal line carries ``"ok"``:

* success — ``{"ok": true, "id": ..., ...}``
* failure — ``{"ok": false, "id": ..., "error": "<code>",
  "message": "..."}``; codes ``busy``, ``deadline``, and
  ``unavailable`` additionally carry ``retry_after`` (seconds): the
  request was *not* applied, back off and retry (the load generator
  and ``ServiceClient`` honour it).

Resilience fields every mutating request may carry:

* ``deadline_ms`` — a relative per-request deadline.  The server
  anchors it at receipt; a request still queued when it expires gets
  a ``deadline`` error (never applied), and a ``run`` in flight is
  stopped by the deadline-aware watchdog (``stopped="deadline"``).
* ``key`` — an idempotency key.  The server consults the session's
  WAL-backed request-dedup journal first, so retrying ``assert`` /
  ``run`` / ``create`` after an ambiguous failure (connection torn
  down before the terminal line arrived) applies exactly once; a
  journal hit is answered with the recorded response plus
  ``deduped: true`` and streams no event lines.

Ops: ``ping``, ``health`` (readiness/drain state, never shed),
``create`` (program + per-session configuration), ``assert`` (a fact
batch, ingested atomically), ``run`` (recognize-act cycles, streaming
firings/writes/derived facts), ``facts`` (dump working memory),
``add_rule`` / ``remove_rule`` / ``replace_rule`` (hot rule reload:
WAL-logged runtime surgery on a live session, copy-on-write rule-base
divergence — see ``docs/DYNAMIC_RULES.md``), ``checkpoint``,
``close``, ``stats``.  See ``docs/SERVICE.md`` for the full field
tables.
"""

from __future__ import annotations

import json

#: Bumped on incompatible protocol changes; ``ping`` reports it.
PROTOCOL_VERSION = 1

#: Cap on one request line; longer lines are a protocol error (and a
#: guard against a client streaming garbage into server memory).  Fact
#: batches beyond this split into several ``assert`` requests.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Error codes a terminal failure response may carry.  ``busy``
#: (admission/backpressure, circuit breaker, drain), ``deadline``
#: (expired while queued), and ``unavailable`` (transient I/O failure,
#: e.g. a WAL append hitting ENOSPC — rolled back, nothing applied)
#: are retryable; the rest are not.
ERROR_CODES = ("protocol", "busy", "no_session", "bad_request",
               "engine", "internal", "deadline", "unavailable")

#: Codes whose failure responses mean "not applied — safe to retry".
RETRYABLE_CODES = frozenset({"busy", "deadline", "unavailable"})


#: The one compact encoder every line goes through: ``json.dumps`` with
#: non-default arguments would build a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def encode_line(obj):
    """*obj* as one NDJSON line (bytes, trailing newline)."""
    return (_ENCODER.encode(obj) + "\n").encode("utf-8")


def decode_line(data):
    """One NDJSON line (bytes/str) back to an object.

    Raises ``ValueError`` for malformed JSON or a non-object payload —
    the server maps that to a ``protocol`` error response.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    obj = json.loads(data)
    if not isinstance(obj, dict):
        raise ValueError(f"request must be a JSON object, got {obj!r}")
    return obj


def ok_response(request_id, **fields):
    response = {"ok": True, "id": request_id}
    response.update(fields)
    return response


def error_response(request_id, code, message, **fields):
    response = {
        "ok": False, "id": request_id, "error": code, "message": message,
    }
    response.update(fields)
    return response


def event_line(request_id, event, **fields):
    line = {"event": event, "id": request_id}
    line.update(fields)
    return line


def firing_event(request_id, record):
    """An event line for one :class:`~repro.engine.tracing.FiringRecord`."""
    return event_line(
        request_id, "firing",
        rule=record.rule_name,
        cycle=record.cycle,
        soi=bool(record.is_set_oriented),
        tags=list(record.time_tags),
        outcome=record.outcome,
    )


def fact_event(request_id, sign, wme):
    """An event line for one derived/retracted working-memory element."""
    return event_line(
        request_id, "fact",
        sign=sign,
        **{"class": wme.wme_class},
        tag=wme.time_tag,
        values=wme.as_dict(),
    )
