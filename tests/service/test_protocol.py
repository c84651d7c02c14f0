"""Wire-protocol framing: NDJSON encode/decode and event shapes."""

from __future__ import annotations

import json

import pytest

from repro.service.protocol import (
    ERROR_CODES,
    decode_line,
    encode_line,
    error_response,
    event_line,
    fact_event,
    firing_event,
    ok_response,
)


class TestFraming:
    def test_encode_is_one_line(self):
        data = encode_line({"op": "ping", "id": 1})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    def test_round_trip(self):
        obj = {"op": "assert", "id": 7,
               "facts": [["emp", {"name": "sue", "salary": 1200}]]}
        assert decode_line(encode_line(obj)) == obj

    def test_compact_encoding(self):
        assert b" " not in encode_line({"a": [1, 2], "b": {"c": 3}})

    def test_unicode_survives(self):
        obj = {"op": "assert", "name": "dépt"}
        assert decode_line(encode_line(obj)) == obj

    def test_decode_accepts_str(self):
        assert decode_line('{"op":"ping"}') == {"op": "ping"}

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            decode_line(b"[1,2,3]\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_line(b"not json at all\n")


class TestResponses:
    def test_ok_echoes_id(self):
        response = ok_response(42, fired=3)
        assert response == {"ok": True, "id": 42, "fired": 3}

    def test_error_carries_code_and_message(self):
        response = error_response(1, "busy", "full", retry_after=0.05)
        assert response["ok"] is False
        assert response["error"] == "busy"
        assert response["retry_after"] == 0.05
        assert response["error"] in ERROR_CODES

    def test_event_line_shape(self):
        line = event_line(9, "write", text="hello")
        assert line == {"event": "write", "id": 9, "text": "hello"}


class _Record:
    rule_name = "dept-size"
    cycle = 3
    is_set_oriented = True
    time_tags = (4, 2, 7)
    outcome = "fired"


class _Wme:
    wme_class = "seen"
    time_tag = 11

    @staticmethod
    def as_dict():
        return {"name": "sue"}


class TestEventPayloads:
    def test_firing_event(self):
        line = firing_event(5, _Record())
        assert line["event"] == "firing"
        assert line["rule"] == "dept-size"
        assert line["soi"] is True
        assert line["tags"] == [4, 2, 7]
        # The payload must be JSON-serialisable as produced.
        json.dumps(line)

    def test_fact_event(self):
        line = fact_event(5, "+", _Wme())
        assert line["class"] == "seen"
        assert line["sign"] == "+"
        assert line["tag"] == 11
        assert line["values"] == {"name": "sue"}
        json.dumps(line)


class _AccentedWme(_Wme):
    @staticmethod
    def as_dict():
        return {"name": "zoë", "salary": 1.5}


class TestSharedEncoder:
    """``encode_line`` reuses one encoder; its bytes are those of
    ``json.dumps`` with the same arguments."""

    @pytest.mark.parametrize("line", [
        firing_event(5, _Record()),
        fact_event(5, "+", _AccentedWme()),
        event_line(9, "write", text="staffed d1 3"),
        ok_response(42, fired=3, quiescent=True, halted=False),
    ], ids=["firing", "fact-non-ascii", "write", "ok"])
    def test_bytes_match_json_dumps(self, line):
        expected = json.dumps(line, separators=(",", ":"),
                              ensure_ascii=False) + "\n"
        assert encode_line(line) == expected.encode("utf-8")
