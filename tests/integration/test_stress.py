"""Stress tests: larger rule bases and WM volumes run to quiescence."""

import random

import pytest

from repro import MatchStats, RuleEngine


def build_rule_base(engine, families=10):
    """A mixed base: joins, negations, set rules across *families* lanes."""
    for lane in range(families):
        engine.add_rule(
            f"(p join-{lane} (src ^lane {lane} ^k <k>) "
            f"(dst ^lane {lane} ^k <k>) --> "
            f"(make link ^lane {lane} ^k <k>))"
        )
        engine.add_rule(
            f"(p lonely-{lane} (src ^lane {lane} ^k <k>) "
            f"-(dst ^lane {lane} ^k <k>) -(probe ^lane {lane} ^k <k>) --> "
            f"(make probe ^lane {lane} ^k <k>))"
        )
        engine.add_rule(
            f"(p crowd-{lane} {{ [link ^lane {lane}] <L> }} "
            f"-(alert ^lane {lane}) "
            f":test ((count <L>) >= 5) --> "
            f"(make alert ^lane {lane}))"
        )


class TestScale:
    def test_thousand_wmes_to_quiescence(self):
        engine = RuleEngine()
        build_rule_base(engine, families=10)
        rng = random.Random(42)
        for _ in range(500):
            lane = rng.randrange(10)
            k = rng.randrange(20)
            engine.make("src", lane=lane, k=k)
            engine.make("dst", lane=lane, k=k)
        fired = engine.run(limit=20000)
        assert fired > 0
        # Every (lane, k) src got either a link or a probe.
        links = len(engine.wm.find("link"))
        probes = len(engine.wm.find("probe"))
        assert links + probes > 0
        # Quiescence: nothing eligible remains.
        assert engine.conflict_set.select(engine.strategy) is None

    def test_heavy_churn_consistency(self):
        """Add/remove storms leave the matcher internally consistent."""
        stats = MatchStats()
        engine = RuleEngine(stats=stats)
        build_rule_base(engine, families=4)
        rng = random.Random(7)
        live = []
        for step in range(600):
            if live and rng.random() < 0.45:
                engine.remove(live.pop(rng.randrange(len(live))))
            else:
                cls = rng.choice(["src", "dst"])
                live.append(
                    engine.make(cls, lane=rng.randrange(4),
                                k=rng.randrange(8))
                )
        for wme in list(engine.wm):
            engine.remove(wme)
        assert stats.totals["tokens_created"] == stats.totals["tokens_deleted"]
        assert engine.conflict_set_size() == 0

    @pytest.mark.parametrize("matcher_name", ["rete", "dips"])
    def test_big_soi(self, make_engine, matcher_name):
        """One SOI with 1000 members builds and fires cleanly."""
        engine = make_engine(matcher_name)
        engine.load(
            """
            (literalize item v)
            (p sweep { [item] <S> } :test ((count <S>) >= 1000)
              -->
              (set-modify <S> ^v done))
            """
        )
        for index in range(1000):
            engine.make("item", v=index)
        # One firing sweeps all 1000 members.  (The modified items
        # re-form the SOI and the rule would refire — the paper's §6
        # refire-on-change semantics — so cap at one firing.)
        assert engine.run(limit=1) == 1
        assert len(engine.wm.find("item", v="done")) == 1000
        [record] = engine.tracer.firings
        assert record.modifies == 1000
