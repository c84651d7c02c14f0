"""Join indexing and matcher choice never change behaviour.

For any random interleaving of makes and removes:

* ``ReteNetwork(indexed_joins=True)`` and ``indexed_joins=False`` reach
  identical conflict sets (same instantiations, same dominance order)
  and then fire the same rules on the same time tags in the same order;
* the naive recompute-everything oracle agrees with both;
* all of them run under ONE shared :class:`MatchStats` hook, proving
  the instrumentation itself never perturbs matching.

The portfolio deliberately spans positive joins, a negated CE, a
positive CE below a negated one, and a set-oriented rule so index
maintenance (memories' and negative nodes'), negative-node counts, and
S-node γ-memories all get exercised by the same op sequence.  Range-only
joins (no ``=`` test, so they probe an ordered index) appear in both
directions, negated, and as a set-oriented CE that retires what it
matches, like the served program's ``expire-emps``.

One value domain feeds every attribute: ties (values repeat), ``1``
and ``1.0`` (one bucket: ``values_equal`` and the order predicates are
numeric), a float, ``inf``, one shared NaN object (equal to nothing,
itself included, and ordered against nothing), two symbols, and a
missing attribute (``nil``).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchStats, RuleEngine
from repro.match import NaiveMatcher
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
(p below (item ^v <v>) (item ^v < <v>) --> (write <v>))
(p at-least (owner ^name <n>) (item ^owner <> <n> ^v >= <n>) --> (write <n>))
(p topmost (item ^v <v>) -(item ^v > <v>) --> (write <v>))
(p retire (owner ^name <k>) { [item ^v < <k>] <old> } --> (set-remove <old>))
"""

_NAN = float("nan")

# None: attribute unset (nil).
_values = st.sampled_from(["a", "b", 0, 1, 1.0, 2.5, math.inf, _NAN, None])

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("item"), _values, _values),
        st.tuples(st.just("owner"), _values, st.just(0)),
        st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def _build_engines(stats):
    configs = {
        "rete-indexed": ReteNetwork(indexed_joins=True),
        "rete-scan": ReteNetwork(indexed_joins=False),
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
            values = {"owner": first, "v": second}
            made.append(engine.make("item", **{
                name: value for name, value in values.items()
                if value is not None
            }))
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
        # The two Rete builds also create instantiations in the same
        # order: a probe hands back its candidates in scan order.
        arrivals = [
            [(inst.rule.name, inst.recency_key())
             for inst in engines[name].conflict_set]
            for name in ("rete-indexed", "rete-scan")
        ]
        assert arrivals[0] == arrivals[1]

        firings = {
            name: _firing_sequence(engine)
            for name, engine in engines.items()
        }
        baseline_firings = firings["rete-indexed"]
        for name, sequence in firings.items():
            assert sequence == baseline_firings, name

        # The shared hook saw every engine's work.
        assert stats.totals["join_tests_attempted"] >= 0
        if baseline_firings:
            assert stats.cycle_count == len(engines) * len(baseline_firings)
