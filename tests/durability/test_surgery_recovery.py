"""Recovery of WAL-logged rule surgery: replay, atomicity, manifests.

Runtime ``add_rule`` / ``excise`` / ``replace_rule`` are rule-base
change records in the WAL (``p`` / ``x`` / ``P``), replayed in order
by ``RuleEngine.recover()`` so a crashed session comes back with the
rules it actually had — not the rules it started with.  ``replace``
is ONE record: a crash can land before it (old rule intact) or after
it (swap complete) but never in between with both or neither rule.
Checkpoint manifests carry the rule-base version hash of the live
program, so a manifest taken after surgery names the post-surgery
program.
"""

import json
import os
import shutil

import pytest

from repro import DurabilityConfig, RuleEngine
from repro.dips.matcher import DipsMatcher
from repro.durability.checkpoint import (
    MANIFEST_NAME,
    program_source,
    read_current,
    rule_base_version,
)
from repro.durability.wal import SEGMENT_SUFFIX
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork

PROGRAM = """
(literalize item owner v)
(literalize owner name)
(p pair (item ^owner <o> ^v <v>) (owner ^name <o>) --> (write <o> <v>))
"""

REPLACEMENT = (
    "(p pair (item ^v {<v> > 2}) --> (write big <v>))"
)

EXTRA = "(p solo (owner ^name <o>) --> (write solo <o>))"

MATCHERS = {
    "rete": ReteNetwork,
    "naive": NaiveMatcher,
    "dips": DipsMatcher,
}


def _surgery_script(engine):
    """Facts + surgery interleaved; same script drives live and oracle."""
    engine.make("item", owner="a", v=1)
    engine.make("owner", name="a")
    engine.run(limit=1)
    engine.add_rule(EXTRA)
    engine.make("owner", name="b")
    engine.replace_rule("pair", REPLACEMENT)
    engine.make("item", owner="b", v=5)
    engine.excise("solo")
    engine.make("owner", name="c")


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def firing_trace(engine, limit=30):
    trace = []
    for _ in range(limit):
        inst = engine.step()
        if inst is None:
            break
        trace.append((inst.rule.name, tuple(inst.recency_key())))
    return trace


def _segments(directory):
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(SEGMENT_SUFFIX)
    )


class TestSurgeryReplay:
    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_recovered_rules_and_state_match_live(self, matcher,
                                                  tmp_path):
        durable = RuleEngine(
            matcher=MATCHERS[matcher](),
            durability=DurabilityConfig(tmp_path, fsync="off"),
        )
        durable.load(PROGRAM)
        _surgery_script(durable)
        # Abrupt stop (no close); recover and compare to an oracle
        # that ran the same script without durability.
        recovered = RuleEngine.recover(tmp_path, durability=False)
        oracle = RuleEngine(matcher=MATCHERS[matcher]())
        oracle.load(PROGRAM)
        _surgery_script(oracle)
        # Recovery replays state, not past side effects: compare only
        # post-recovery output.
        oracle.tracer.output.clear()
        assert sorted(recovered.rules) == sorted(oracle.rules)
        assert wm_state(recovered) == wm_state(oracle)
        assert firing_trace(recovered) == firing_trace(oracle)
        assert recovered.output == oracle.output

    def test_recovered_replacement_rule_behaves_as_replaced(self,
                                                            tmp_path):
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        durable.load(PROGRAM)
        durable.replace_rule("pair", REPLACEMENT)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert sorted(recovered.rules) == ["pair"]
        # The *new* body matches, not the old join.
        recovered.make("item", owner="x", v=9)
        assert recovered.run() == 1
        assert recovered.output == ["big 9"]

    def test_surgery_after_checkpoint_replays_from_tail(self, tmp_path):
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        durable.load(PROGRAM)
        durable.make("item", owner="a", v=1)
        durable.checkpoint()
        durable.replace_rule("pair", REPLACEMENT)
        durable.add_rule(EXTRA)
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert sorted(recovered.rules) == ["pair", "solo"]
        recovered.make("item", owner="a", v=7)
        recovered.run()
        assert "big 7" in recovered.output


class TestReplaceAtomicity:
    def _wal_with_pending_replace(self, tmp_path):
        """WAL bytes before and after a single replace record."""
        root = tmp_path / "wal"
        durable = RuleEngine(
            durability=DurabilityConfig(root, fsync="off")
        )
        durable.load(PROGRAM)
        durable.make("item", owner="a", v=1)
        before = {p: os.path.getsize(p) for p in _segments(root)}
        durable.replace_rule("pair", REPLACEMENT)
        segments = _segments(root)
        assert segments and before, "expected live WAL segments"
        # The replace landed in the final segment.
        tail = segments[-1]
        start = before.get(tail, 0)
        end = os.path.getsize(tail)
        assert end > start, "replace wrote no WAL record"
        return root, tail, start, end

    def _truncated_recover(self, tmp_path, root, tail, size, label):
        clone = tmp_path / f"clone-{label}"
        shutil.copytree(root, clone)
        with open(clone / os.path.basename(tail), "r+b") as handle:
            handle.truncate(size)
        return RuleEngine.recover(clone, durability=False)

    def test_torn_replace_record_keeps_old_rule(self, tmp_path):
        root, tail, start, end = self._wal_with_pending_replace(tmp_path)
        # Truncate at several points inside the P frame: the replace
        # must be invisible — old rule intact, new body absent.
        cuts = sorted({start, start + 1, (start + end) // 2, end - 1})
        for size in cuts:
            recovered = self._truncated_recover(
                tmp_path, root, tail, size, size
            )
            assert sorted(recovered.rules) == ["pair"], (
                f"cut at {size} (frame {start}..{end})"
            )
            if size > start:
                assert recovered.recovery_report.tail_damaged
            # Old join body still live: needs owner+item to match.
            recovered.make("item", owner="z", v=9)
            assert recovered.run() == 0
            recovered.make("owner", name="z")
            assert recovered.run() == 1
            assert recovered.output == ["z 9"]

    def test_complete_replace_record_swaps_rule(self, tmp_path):
        root, tail, start, end = self._wal_with_pending_replace(tmp_path)
        recovered = self._truncated_recover(
            tmp_path, root, tail, end, "full"
        )
        assert sorted(recovered.rules) == ["pair"]
        recovered.make("item", owner="z", v=9)
        assert recovered.run() == 1
        assert recovered.output == ["big 9"]


class TestManifestVersion:
    def _current_manifest(self, root):
        name = read_current(root)
        assert name is not None
        with open(os.path.join(root, name, MANIFEST_NAME),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def test_manifest_hash_tracks_live_program(self, tmp_path):
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        durable.load(PROGRAM)
        durable.checkpoint()
        manifest = self._current_manifest(tmp_path)
        expected = rule_base_version(program_source(durable))
        assert manifest["rule_base_version"] == expected

        durable.replace_rule("pair", REPLACEMENT)
        durable.checkpoint()
        after = self._current_manifest(tmp_path)
        changed = rule_base_version(program_source(durable))
        assert after["rule_base_version"] == changed
        assert after["rule_base_version"] != manifest["rule_base_version"]

    def test_recover_from_post_surgery_checkpoint(self, tmp_path):
        durable = RuleEngine(
            durability=DurabilityConfig(tmp_path, fsync="off")
        )
        durable.load(PROGRAM)
        durable.replace_rule("pair", REPLACEMENT)
        durable.add_rule(EXTRA)
        durable.checkpoint()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert sorted(recovered.rules) == ["pair", "solo"]
        assert (
            rule_base_version(program_source(recovered))
            == rule_base_version(program_source(durable))
        )
