"""Unit tests for working-memory snapshots."""

import json

import pytest

from repro import RuleEngine
from repro.errors import WorkingMemoryError
from repro.wm import WorkingMemory
from repro.wm.snapshot import dump_wm, load_wm, restore_wm, save_wm


class TestRoundTrip:
    def test_time_tags_preserved(self):
        wm = WorkingMemory()
        wm.make("a", x=1)
        middle = wm.make("a", x=2)
        wm.make("b", y="s")
        wm.remove(middle)  # leaves a tag gap: 1, _, 3
        snapshot = dump_wm(wm)

        clone = WorkingMemory()
        restore_wm(clone, snapshot)
        assert [(w.wme_class, w.time_tag) for w in clone] == [
            ("a", 1), ("b", 3),
        ]

    def test_counter_resumes_past_snapshot(self):
        wm = WorkingMemory()
        wm.make("a")
        wm.make("a")
        clone = WorkingMemory()
        restore_wm(clone, dump_wm(wm))
        fresh = clone.make("a")
        assert fresh.time_tag == 3

    def test_file_round_trip(self, tmp_path):
        wm = WorkingMemory()
        wm.make("player", name="Jack", team="A")
        path = tmp_path / "wm.json"
        save_wm(wm, path)
        clone = WorkingMemory()
        load_wm(clone, path)
        assert clone.find("player", name="Jack")

    def test_restore_requires_empty_wm(self):
        wm = WorkingMemory()
        wm.make("a")
        with pytest.raises(WorkingMemoryError):
            restore_wm(wm, {"version": 2, "shapes": [], "wmes": []})

    def test_version_check(self):
        with pytest.raises(WorkingMemoryError):
            restore_wm(WorkingMemory(), {"version": 9, "wmes": []})

    def test_dict_per_fact_format_is_refused(self):
        old = {"version": 1, "next_tag": 2,
               "wmes": [{"class": "a", "tag": 1, "values": {"x": 1}}]}
        with pytest.raises(WorkingMemoryError, match="version 1"):
            restore_wm(WorkingMemory(), old)

    def test_each_shape_written_once(self):
        wm = WorkingMemory()
        wm.make_all([("a", {"x": i, "y": "s"}) for i in range(3)])
        wm.make("a", y="t", x=9)
        wm.make("b")
        snapshot = dump_wm(wm)
        assert snapshot["shapes"] == [
            ["a", ["x", "y"]], ["a", ["y", "x"]], ["b", []],
        ]
        assert snapshot["wmes"] == [
            [0, 1, 0, "s"], [0, 2, 1, "s"], [0, 3, 2, "s"],
            [1, 4, "t", 9], [2, 5],
        ]

    def test_one_class_two_shapes_round_trip(self):
        # A modify that widens a fact made before its class was
        # literalized keeps the attribute the declaration lacks; the
        # JSON round trip must bring it back, beside a fact of the
        # declared shape, with values and time tags intact.
        wm = WorkingMemory()
        sue = wm.make("player", name="Sue", salary=3)
        wm.registry.literalize("player", ["name", "team"])
        wm.make("player", name="Ann", team="y")
        widened = wm.modify(sue, team="x")
        snapshot = json.loads(json.dumps(dump_wm(wm)))
        assert len(snapshot["shapes"]) == 2

        clone = WorkingMemory()
        clone.registry.literalize("player", ["name", "team"])
        restore_wm(clone, snapshot)
        assert [(w.time_tag, w.as_dict()) for w in clone] == [
            (2, {"name": "Ann", "team": "y"}),
            (widened.time_tag,
             {"name": "Sue", "salary": 3, "team": "x"}),
        ]
        assert clone.latest_time_tag == widened.time_tag
        # A new fact is still held to the declaration.
        with pytest.raises(WorkingMemoryError, match=r"\^salary"):
            clone.make("player", name="Bo", salary=3)


class TestEngineRestart:
    def test_engine_resumes_with_identical_behaviour(self, tmp_path):
        """A saved session restores matches AND recency ordering."""
        program = """
        (literalize player name team)
        (p newest (player ^name <n>) --> (write newest is <n>))
        """
        first = RuleEngine()
        first.load(program)
        first.make("player", name="old", team="A")
        first.make("player", name="new", team="B")
        path = tmp_path / "session.json"
        save_wm(first.wm, path)

        second = RuleEngine()
        second.load(program)
        load_wm(second.wm, path)
        assert second.conflict_set_size() == 2
        second.step()
        # Recency survived the restart: the later-made WME dominates.
        assert second.output == ["newest is new"]

    def test_bulk_restore_rides_the_batched_path(self):
        """A 10k-WME restore is one set-oriented pass, not 10k events.

        The batched delta propagation must do measurably less join
        work than replaying the snapshot one make at a time — this is
        the whole point of restoring through ``wm.batch()``.
        """
        from repro import MatchStats

        program = """
        (literalize item owner v)
        (literalize owner name)
        (p pair (item ^owner <o>) (owner ^name <o>) --> (write <o>))
        """
        source = RuleEngine()
        source.load(program)
        with source.batch():
            for i in range(5000):
                source.make("item", owner=f"o{i}", v=i)
                source.make("owner", name=f"o{i}")
        snapshot = dump_wm(source.wm)
        assert len(snapshot["wmes"]) == 10_000

        per_event = RuleEngine(stats=MatchStats())
        per_event.load(program)
        shapes = snapshot["shapes"]
        for index, tag, *values in snapshot["wmes"]:
            wme_class, attributes = shapes[index]
            per_event.wm._next_tag = tag
            per_event.wm.make(wme_class, **dict(zip(attributes, values)))

        batched = RuleEngine(stats=MatchStats())
        batched.load(program)
        restore_wm(batched.wm, snapshot, stats=batched.stats)

        assert (
            batched.conflict_set_size() == per_event.conflict_set_size()
        )
        joins = "join_tests_attempted"
        assert batched.stats.totals[joins] < per_event.stats.totals[joins]
        assert (
            batched.stats.totals["alpha_activations"]
            < per_event.stats.totals["alpha_activations"]
        )
        assert batched.stats.totals["batches"] == 1
        assert batched.stats.totals["batch_deltas_net"] == 10_000

    def test_restore_reports_batch_to_stats(self):
        from repro import MatchStats

        wm = WorkingMemory()
        wm.make("a", x=1)
        wm.make("a", x=2)
        stats = MatchStats()
        clone = WorkingMemory()
        restore_wm(clone, dump_wm(wm), stats=stats)
        assert stats.totals["batches"] == 1
        assert stats.totals["batch_deltas_net"] == 2

    def test_non_monotone_snapshot_refused(self):
        snapshot = {
            "version": 2,
            "next_tag": 3,
            "shapes": [["a", []]],
            "wmes": [[0, 2], [0, 2]],
        }
        with pytest.raises(WorkingMemoryError, match="restore"):
            restore_wm(WorkingMemory(), snapshot)

    def test_soi_state_rebuilt(self, tmp_path):
        program = """
        (literalize item v)
        (p watch { [item] <S> } :test ((count <S>) >= 2) --> (write go))
        """
        first = RuleEngine()
        first.load(program)
        first.make("item", v=1)
        first.make("item", v=2)
        path = tmp_path / "wm.json"
        save_wm(first.wm, path)

        second = RuleEngine()
        second.load(program)
        load_wm(second.wm, path)
        [inst] = second.conflict_set.instantiations()
        assert len(inst.tokens()) == 2
