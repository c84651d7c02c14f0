"""The rule service's wire protocol: newline-delimited JSON (NDJSON).

One request per line, one *terminal* response line per request, with
zero or more *batch* lines streamed before it — firings, writes and
derived facts flow back as they are drained, the Reaction-RuleML
request/response shape (a producer/consumer event exchange, not RPC
with a single opaque result).

Request::

    {"op": "<name>", "id": <any JSON, echoed back>, "session": "...",
     ...op-specific fields...}

A ``run`` or ``facts`` response streams its events set-at-a-time, as
row-encoded **batch lines** (protocol version 2)::

    {"event": "batch", "id": ...,
     "shapes": [[class, [attribute, ...]], ...],
     "firings": [[rule, cycle, soi, [tags...], outcome], ...],
     "writes": [text, ...],
     "facts": [[sign, shape, tag, value, ...], ...]}

A key with no rows is left out.  Rows keep the order of the events
they stand for — every firing, then every write, then every fact —
and a line holds at most :data:`ROWS_PER_LINE` of them, so one line
may end one kind and begin the next.  A fact names its class and
attributes by an index into its own line's ``shapes`` (a line lists
only the shapes its facts use) and carries its values in that shape's
order, as a working-memory row holds them.  :func:`expand_batch` turns
a batch line back into the per-event objects (``firing`` / ``write`` /
``fact``, built by :func:`firing_event`, :func:`event_line` and
:func:`fact_event`) that version 1 sent one line each.  The terminal
line carries ``"ok"``:

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
  ``deduped: true`` and streams no batch lines.

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
PROTOCOL_VERSION = 2

#: Cap on one request line; longer lines are a protocol error (and a
#: guard against a client streaming garbage into server memory).  Fact
#: batches beyond this split into several ``assert`` requests.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: The most rows (firings, writes and facts together) one batch line
#: carries.
ROWS_PER_LINE = 256

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
#: non-default arguments would build a new encoder per call.  Lines are
#: trees of plain values, so the circular-reference check, a dict insert
#: and delete per list and object (a quarter of a batch line's encode),
#: is off; a cycle still fails, as a ``RecursionError``.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                            check_circular=False)


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


def batch_lines(request_id, records, writes, facts):
    """The encoded batch lines of one response: a row per
    :class:`~repro.engine.tracing.FiringRecord` in *records*, per
    string in *writes* and per ``(sign, wme)`` pair in *facts*, in that
    order, :data:`ROWS_PER_LINE` to a line.

    Lines are built and encoded one at a time, as they are consumed.
    One over :data:`MAX_LINE_BYTES` is split in half until it fits; a
    single row over the limit goes out as it is, and the client refuses
    it as it would any line that long.
    """
    total = len(records) + len(writes) + len(facts)
    for low in range(0, total, ROWS_PER_LINE):
        yield from _fitted(request_id, records, writes, facts,
                           low, min(low + ROWS_PER_LINE, total))


def _fitted(request_id, records, writes, facts, low, high):
    data = encode_line(
        _batch(request_id, records, writes, facts, low, high)
    )
    if len(data) <= MAX_LINE_BYTES or high - low == 1:
        yield data
        return
    middle = (low + high) // 2
    yield from _fitted(request_id, records, writes, facts, low, middle)
    yield from _fitted(request_id, records, writes, facts, middle, high)


def _batch(request_id, records, writes, facts, low, high):
    """The batch line for rows ``[low, high)`` of the sequence
    *records*, then *writes*, then *facts*."""
    line = {"event": "batch", "id": request_id}
    fired = len(records)
    written = fired + len(writes)
    if low < fired:
        line["firings"] = [
            [record.rule_name, record.cycle,
             bool(record.is_set_oriented), record.time_tags,
             record.outcome]
            for record in records[low:min(high, fired)]
        ]
    if low < written and high > fired:
        line["writes"] = writes[max(low, fired) - fired:
                                min(high, written) - fired]
    if high > written:
        shapes = []
        index_of = {}
        rows = []
        for sign, wme in facts[max(low, written) - written:
                               high - written]:
            key = (wme.wme_class, id(wme.shape))
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(shapes)
                shapes.append([wme.wme_class, list(wme.shape)])
            rows.append([sign, index, wme.time_tag, *wme.row[:-1]])
        line["shapes"] = shapes
        line["facts"] = rows
    return line


def expand_batch(line):
    """The per-event objects a decoded batch *line* stands for, in its
    order: each equal to what :func:`firing_event`,
    ``event_line(id, "write", text=...)`` or :func:`fact_event` builds
    for the same event."""
    request_id = line["id"]
    events = [
        {"event": "firing", "id": request_id, "rule": rule,
         "cycle": cycle, "soi": soi, "tags": tags, "outcome": outcome}
        for rule, cycle, soi, tags, outcome in line.get("firings", ())
    ]
    events += [
        {"event": "write", "id": request_id, "text": text}
        for text in line.get("writes", ())
    ]
    shapes = line.get("shapes", ())
    events += [
        {"event": "fact", "id": request_id, "sign": sign,
         "class": shapes[shape][0], "tag": tag,
         "values": dict(zip(shapes[shape][1], values))}
        for sign, shape, tag, *values in line.get("facts", ())
    ]
    return events
