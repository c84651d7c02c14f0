"""Wire-protocol framing: NDJSON encode/decode and event shapes."""

from __future__ import annotations

import json

import pytest

from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ROWS_PER_LINE,
    batch_lines,
    decode_line,
    encode_line,
    error_response,
    event_line,
    expand_batch,
    fact_event,
    firing_event,
    ok_response,
)
from repro import RuleEngine
from repro.wm import WorkingMemory

from tests.conftest import make_codec_cases


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


class _Firing:
    def __init__(self, rule_name, cycle, is_set_oriented, time_tags):
        self.rule_name = rule_name
        self.cycle = cycle
        self.is_set_oriented = is_set_oriented
        self.time_tags = time_tags
        self.outcome = "fired"


def _facts():
    """``(sign, wme)`` pairs over several classes and shapes: a fact
    widened by ``modify``, floats, negatives, absent attributes."""
    wm = WorkingMemory()
    wm.registry.literalize("emp", ("name", "dept", "salary", "bonus"))
    sue = wm.make("emp", name="sue", dept="d0", salary=1200.5)
    bob = wm.make("emp", name="bob", salary=-3)
    wide = wm.modify(sue, bonus=-0.25)
    note = wm.make("note", text="zoë", n=-7)
    return [("+", sue), ("+", bob), ("-", sue), ("+", wide),
            ("+", note), ("-", bob)]


def _expanded(lines):
    return [event for line in lines
            for event in expand_batch(decode_line(line))]


def _v1(request_id, records, writes, facts):
    return [
        *(firing_event(request_id, record) for record in records),
        *(event_line(request_id, "write", text=text) for text in writes),
        *(fact_event(request_id, sign, wme) for sign, wme in facts),
    ]


class TestBatchLines:
    """Batch lines expand to exactly the events version 1 sent."""

    def test_protocol_version(self):
        assert PROTOCOL_VERSION == 2

    def test_expansion_equals_v1(self):
        records = [_Firing("dept-size", 1, True, (4, 2, 7)),
                   _Firing("greet", 2, False, (3,))]
        writes = ["staffed d0 2", "hello zoë"]
        facts = _facts()
        lines = list(batch_lines(5, records, writes, facts))
        assert len(lines) == 1
        assert _expanded(lines) == _v1(5, records, writes, facts)

    def test_a_line_lists_the_shapes_its_facts_use(self):
        facts = _facts()
        (line,) = map(decode_line, batch_lines("x", [], [], facts))
        assert set(line) == {"event", "id", "shapes", "facts"}
        assert line["shapes"] == [["emp", ["name", "dept", "salary"]],
                                  ["emp", ["name", "salary"]],
                                  ["emp", ["name", "dept", "salary",
                                           "bonus"]],
                                  ["note", ["text", "n"]]]
        assert line["facts"][3] == ["+", 2, 3, "sue", "d0", 1200.5, -0.25]

    def test_codec_cases_expand_to_v1(self):
        facts = make_codec_cases(RuleEngine())
        (line,) = batch_lines(3, [], [], facts)
        expanded = _expanded([line])
        assert expanded == _v1(3, [], [], facts)
        # Each fact's attributes come back in the order it holds them.
        assert [list(event["values"].items()) for event in expanded] == [
            list(zip(wme.shape, wme.row)) for _, wme in facts
        ]

    def test_order_holds_across_line_boundaries(self):
        records = [_Firing(f"r{i}", i, i % 3 == 0, (i,))
                   for i in range(ROWS_PER_LINE - 2)]
        writes = [f"w{i}" for i in range(5)]
        facts = _facts() * 60
        lines = list(batch_lines(1, records, writes, facts))
        decoded = [decode_line(line) for line in lines]
        assert [sum(len(d.get(k, ())) for k in ("firings", "writes", "facts"))
                for d in decoded] == [ROWS_PER_LINE, ROWS_PER_LINE, 107]
        # The first line ends the firings and begins the writes.
        assert "writes" in decoded[0] and "facts" in decoded[1]
        assert _expanded(lines) == _v1(1, records, writes, facts)

    def test_no_rows_no_lines(self):
        assert list(batch_lines(1, [], [], [])) == []

    def test_an_oversized_line_splits_in_half_until_it_fits(self):
        wm = WorkingMemory()
        facts = [("+", wm.make("blob", n=i, text="x" * 40_000))
                 for i in range(ROWS_PER_LINE)]
        lines = list(batch_lines(1, [], [], facts))
        assert len(lines) == 2
        assert max(map(len, lines)) <= MAX_LINE_BYTES
        assert _expanded(lines) == _v1(1, [], [], facts)

    def test_a_single_row_over_the_cap_goes_out_whole(self):
        wm = WorkingMemory()
        facts = [("+", wm.make("blob", text="x" * MAX_LINE_BYTES))]
        (line,) = batch_lines(1, [], [], facts)
        assert len(line) > MAX_LINE_BYTES
