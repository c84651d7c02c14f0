"""Join indexing and matcher choice never change behaviour.

For any random interleaving of makes and removes:

* ``ReteNetwork(indexed_joins=True)`` and ``indexed_joins=False`` reach
  identical conflict sets (same instantiations, same dominance order)
  and then fire the same rules on the same time tags in the same order;
* TREAT and the naive recompute-everything oracle agree with both;
* all of them run under ONE shared :class:`MatchStats` hook, proving
  the instrumentation itself never perturbs matching.

The portfolio deliberately spans positive joins, a negated CE, a
positive CE below a negated one, and a set-oriented rule so index
maintenance (memories' and negative nodes'), negative-node counts, and
S-node γ-memories all get exercised by the same op sequence.  The key
domain holds ``1`` and ``1.0`` (one bucket: ``values_equal`` is
numeric) and a missing attribute (``nil``) beside two symbols.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchStats, RuleEngine
from repro.match import NaiveMatcher, TreatMatcher
from repro.rete import ReteNetwork

PROGRAM = """
(literalize item owner v)
(literalize owner name)
(p pair (item ^owner <o> ^v <v>) (owner ^name <o>) --> (write <o> <v>))
(p lonely (item ^owner <o>) -(owner ^name <o>) --> (write <o>))
(p unclaimed
  (item ^owner <o> ^v <v>) -(owner ^name <o>) (item ^owner <o> ^v > <v>)
  -->
  (write <o> <v>))
(p tally { [item ^owner <o> ^v <v>] <S> }
  :scalar (<o>)
  :test ((count <S>) >= 2)
  -->
  (write <o> (count <S>)))
"""

_keys = st.sampled_from(["a", "b", 1, 1.0, None])  # None: attribute unset

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("item"), _keys, st.integers(0, 3)),
        st.tuples(st.just("owner"), _keys, st.just(0)),
        st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def _build_engines(stats):
    configs = {
        "rete-indexed": ReteNetwork(indexed_joins=True),
        "rete-scan": ReteNetwork(indexed_joins=False),
        "treat": TreatMatcher(),
        "naive": NaiveMatcher(),
    }
    engines = {}
    for name, matcher in configs.items():
        engine = RuleEngine(matcher=matcher, stats=stats)
        engine.load(PROGRAM)
        engines[name] = engine
    return engines


def _apply(engine, ops):
    made = []
    for kind, first, second in ops:
        if kind == "item":
            keyed = {} if first is None else {"owner": first}
            made.append(engine.make("item", v=second, **keyed))
        elif kind == "owner":
            keyed = {} if first is None else {"name": first}
            made.append(engine.make("owner", **keyed))
        else:
            live = [w for w in made if w in engine.wm]
            if live:
                engine.remove(live[first % len(live)])


def _conflict_order(engine):
    return [
        (inst.rule.name, inst.recency_key())
        for inst in engine.conflict_set.ordered(engine.strategy)
        if inst.eligible()
    ]


def _firing_sequence(engine):
    engine.run()
    return [(f.rule_name, f.time_tags) for f in engine.tracer.firings]


class TestIndexAblationEquivalence:
    @given(_ops)
    @settings(max_examples=60, deadline=None)
    def test_identical_conflict_sets_and_firings(self, ops):
        stats = MatchStats()
        engines = _build_engines(stats)
        for engine in engines.values():
            _apply(engine, ops)

        conflict_orders = {
            name: _conflict_order(engine)
            for name, engine in engines.items()
        }
        baseline = conflict_orders["rete-indexed"]
        for name, order in conflict_orders.items():
            assert order == baseline, name

        firings = {
            name: _firing_sequence(engine)
            for name, engine in engines.items()
        }
        baseline_firings = firings["rete-indexed"]
        for name, sequence in firings.items():
            assert sequence == baseline_firings, name

        # The shared hook saw all four matchers' work.
        assert stats.totals["join_tests_attempted"] >= 0
        if baseline_firings:
            assert stats.cycle_count == 4 * len(baseline_firings)
