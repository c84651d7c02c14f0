"""Batched delta propagation through the Rete network."""

import pytest

from repro import MatchStats, RuleEngine
from repro.rete import ReteNetwork
from repro.rete.aggregates import AggregateState

SELF_JOIN = """
(literalize pair v)
(p twin (pair ^v <x>) (pair ^v <x>) --> (write twin <x>))
"""

SET_RULE = """
(literalize dept name)
(literalize emp dept salary)
(p big-dept
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 2)
  -->
  (write big <d> (count <staff>)))
"""

NEGATION = """
(literalize task id)
(literalize lock id)
(p free (task ^id <i>) -(lock ^id <i>) --> (write free <i>))
"""


def _engine(source, batched=True, stats=None):
    engine = RuleEngine(matcher=ReteNetwork(batched=batched), stats=stats)
    engine.load(source)
    return engine


class TestBatchedJoins:
    def test_self_join_pairs_found_exactly_once(self):
        """Both WMEs of a pair arrive in ONE batch: no duplicate matches."""
        batched = _engine(SELF_JOIN)
        reference = _engine(SELF_JOIN, batched=False)
        for engine in (batched, reference):
            with engine.batch():
                engine.make("pair", v=1)
                engine.make("pair", v=1)
                engine.make("pair", v=2)
            engine.run()
        assert sorted(batched.output) == sorted(reference.output)
        assert len(batched.conflict_set) == len(reference.conflict_set)

    def test_grouped_probe_does_less_join_work(self):
        stats_batched = MatchStats()
        stats_events = MatchStats()
        batched = _engine(SET_RULE, stats=stats_batched)
        per_event = _engine(SET_RULE, batched=False, stats=stats_events)
        for engine in (batched, per_event):
            engine.make("dept", name="sales")
            engine.make("dept", name="eng")
            with engine.batch():
                for i in range(40):
                    engine.make(
                        "emp", dept="sales" if i % 2 else "eng", salary=i
                    )
        assert (
            stats_batched.totals["join_tests_attempted"]
            < stats_events.totals["join_tests_attempted"]
        )
        assert stats_batched.totals["group_probes"] > 0
        batched.run()
        per_event.run()
        assert batched.output == per_event.output


class TestBatchedSNode:
    def test_snode_reevaluates_once_per_batch(self):
        stats = MatchStats()
        engine = _engine(SET_RULE, stats=stats)
        engine.make("dept", name="sales")
        with engine.batch():
            for i in range(10):
                engine.make("emp", dept="sales", salary=i)
        # One SOI touched, one test re-evaluation for the whole batch.
        assert stats.totals["snode_batch_sois"] == 1
        assert stats.totals["snode_batch_reevals"] == 1
        engine.run()
        assert engine.output == ["big sales 10"]

    def test_soi_emptied_and_recreated_within_batch(self):
        engine = _engine(SET_RULE)
        gamma = engine.matcher.snode_for("big-dept").gamma
        engine.make("dept", name="sales")
        first = [
            engine.make("emp", dept="sales", salary=i) for i in range(3)
        ]
        engine.run()
        assert engine.output == ["big sales 3"]
        [emptied] = gamma.values()
        with engine.batch():
            for wme in first:
                engine.remove(wme)
            for i in range(2):
                engine.make("emp", dept="sales", salary=10 + i)
        # The departures settle before the first arrival: the key gets
        # a fresh SOI, as the per-event replay builds one.
        [fresh] = gamma.values()
        assert fresh is not emptied and len(emptied) == 0
        engine.run()
        assert engine.output == ["big sales 3", "big sales 2"]

    @pytest.mark.parametrize("leaving, folds", [(5, 0), (2, 2)],
                             ids=["whole-soi", "part-of-soi"])
    def test_departures_are_staged_per_soi(self, monkeypatch, leaving,
                                           folds):
        """Removes in one batch: one alpha activation for the emp
        memory, one staged SOI; an SOI every token leaves is dropped
        whole, without folding its aggregate per token."""
        stats = MatchStats()
        engine = _engine(SET_RULE, stats=stats)
        engine.make("dept", name="sales")
        staff = engine.load_facts(
            [("emp", {"dept": "sales", "salary": i}) for i in range(5)]
        )
        engine.run()
        removed = []
        monkeypatch.setattr(
            AggregateState, "remove_token",
            lambda state, token: removed.append(token),
        )
        before = dict(stats.totals)
        with engine.batch():
            for wme in staff[:leaving]:
                engine.remove(wme)
        moved = {name: stats.totals[name] - before.get(name, 0)
                 for name in ("alpha_activations", "snode_batch_sois")}
        assert moved == {"alpha_activations": 1, "snode_batch_sois": 1}
        assert len(removed) == folds
        gamma = engine.matcher.snode_for("big-dept").gamma
        assert [len(soi) for soi in gamma.values()] == (
            [5 - leaving] if leaving < 5 else []
        )

    def test_batch_refire_only_when_set_touched(self):
        engine = _engine(SET_RULE)
        engine.make("dept", name="sales")
        engine.make("dept", name="eng")
        with engine.batch():
            engine.make("emp", dept="sales", salary=1)
            engine.make("emp", dept="sales", salary=2)
            engine.make("emp", dept="eng", salary=3)
            engine.make("emp", dept="eng", salary=4)
        engine.run()
        assert sorted(engine.output) == ["big eng 2", "big sales 2"]
        # Touch only the sales set: just that SOI refires.
        with engine.batch():
            engine.make("emp", dept="sales", salary=5)
        engine.run()
        assert sorted(engine.output) == [
            "big eng 2", "big sales 2", "big sales 3"
        ]

    def test_transient_set_member_never_fires(self):
        engine = _engine(SET_RULE)
        engine.make("dept", name="sales")
        with engine.batch():
            engine.make("emp", dept="sales", salary=1)
            doomed = engine.make("emp", dept="sales", salary=2)
            engine.remove(doomed)
        engine.run()
        # Only one surviving member: the :test (count >= 2) fails.
        assert engine.output == []


class TestBatchedNegation:
    def test_blocker_and_item_in_one_batch(self):
        batched = _engine(NEGATION)
        reference = _engine(NEGATION, batched=False)
        for engine in (batched, reference):
            with engine.batch():
                engine.make("task", id=1)
                engine.make("task", id=2)
                engine.make("lock", id=1)
            engine.run()
        assert sorted(batched.output) == sorted(reference.output)
        assert sorted(batched.output) == ["free 2"]

    def test_unblocking_remove_in_batch(self):
        engine = _engine(NEGATION)
        engine.make("task", id=1)
        lock = engine.make("lock", id=1)
        engine.run()
        assert engine.output == []
        with engine.batch():
            engine.remove(lock)
        engine.run()
        assert engine.output == ["free 1"]


class TestEngineBatchApi:
    def test_load_facts_returns_wmes_in_order(self):
        engine = _engine(SET_RULE)
        engine.make("dept", name="sales")
        made = engine.load_facts(
            ("emp", {"dept": "sales", "salary": i}) for i in range(4)
        )
        assert [w.get("salary") for w in made] == [0, 1, 2, 3]
        assert all(w in engine.wm for w in made)
        engine.run()
        assert engine.output == ["big sales 4"]

    def test_unbatched_network_flag_replays(self):
        stats = MatchStats()
        engine = _engine(SET_RULE, batched=False, stats=stats)
        engine.make("dept", name="sales")
        with engine.batch():
            engine.make("emp", dept="sales", salary=1)
            engine.make("emp", dept="sales", salary=2)
        # The flush happened (WM-side counters), but the network replayed
        # per event: no grouped probes, no staged S-node flushes.
        assert stats.totals["batches"] == 1
        assert stats.totals["group_probes"] == 0
        assert stats.totals["snode_batch_sois"] == 0
        engine.run()
        assert engine.output == ["big sales 2"]

    def test_rule_added_after_batch_backfills(self):
        engine = RuleEngine()
        engine.literalize("dept", "name")
        engine.literalize("emp", "dept", "salary")
        with engine.batch():
            engine.make("dept", name="sales")
            engine.make("emp", dept="sales", salary=1)
            engine.make("emp", dept="sales", salary=2)
        engine.load("""
        (p big-dept
          (dept ^name <d>)
          { [emp ^dept <d>] <staff> }
          :test ((count <staff>) >= 2)
          -->
          (write big <d> (count <staff>)))
        """)
        engine.run()
        assert engine.output == ["big sales 2"]
