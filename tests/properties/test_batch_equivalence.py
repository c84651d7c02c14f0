"""Batched and per-event propagation are observationally identical.

For any random sequence of delta-batches — each mixing makes, modifies,
and removes, including make/remove of the *same* WME inside one batch —
every matcher reaches the same conflict set (same instantiations, same
dominance order, same refire eligibility) and then fires the same rules
on the same time tags in the same order as the per-event reference.

The reference is ``ReteNetwork(batched=False)``: it receives the same
flushed *net* delta-sets but replays them one event at a time, which is
the semantics ``docs/BATCHING.md`` documents (a batch applies its net
delta atomically).  Naive and DIPS run their own set-oriented
batch entry points and are held to the same behaviour, down to the
``+`` / ``-`` / ``time`` marks their S-nodes send (``rete-batched``'s).

The portfolio spans a positive join rule, a negated-CE rule, and a
set-oriented rule with an aggregate ``:test`` — so grouped join
probing, per-event negation, and the staged S-node flush are all
exercised by the same op sequences.  Interleaved ``run()`` calls
between batches check refire behaviour: an SOI whose set was touched by
a batch must become eligible again, an untouched one must not.

Four more rules read aggregates on the RHS — over a CE ``^attr`` and
over a set PV, with and without ``:scalar``, one of them the aggregate
its own ``:test`` reads — over values that mix ints, floats and a
symbol.  γ-memory maintains those for the RHS, so their written values
are held to a second oracle: every ``kept`` line (the maintained read)
is followed by a ``fresh`` line written inside a ``foreach`` over
``^k``, which is 0 on every item — one group holding the whole set,
folded from nothing the way every RHS aggregate used to be.  A ``sum``
or ``avg`` over the symbol fails the firing; the engines skip it alike.

DIPS runs on both storage backends, and the inputs include what a
delta-driven matcher can get wrong: a same-class self-join (``twins``),
a ``rekey`` that moves a WME to another join partner, and pinned batches
that touch both sides of a join, re-add what they removed, or add and
remove a negated CE's blocker (the one case DIPS answers by re-running
its full query).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MatchStats, RuleEngine
from repro.dips.matcher import DipsMatcher
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork

PROGRAM = """
(literalize item owner v k)
(literalize owner name)
(p pair (item ^owner <o> ^v <v>) (owner ^name <o>) --> (write <o> <v>))
(p lonely (item ^owner <o>) -(owner ^name <o>) --> (write <o>))
(p twins (item ^owner <o> ^v <v>) (item ^owner <o> ^v <v>)
  --> (write twins <o> <v>))
(p tally { [item ^owner <o> ^v <v>] <S> }
  :scalar (<o>)
  :test ((count <S>) >= 2)
  -->
  (write <o> (count <S>)))
(p spread { [item ^owner <o> ^v <v> ^k <k>] <S> }
  :scalar (<o>)
  -->
  (write kept <o> (min <S> ^v) (max <S> ^v) (count <v>) (max <v>))
  (foreach <k>
    (write fresh <o> (min <S> ^v) (max <S> ^v) (count <v>) (max <v>))))
(p total { [item ^v <v> ^k <k>] <S> }
  -->
  (write kept all (sum <S> ^v) (avg <S> ^v))
  (foreach <k> (write fresh all (sum <S> ^v) (avg <S> ^v))))
(p domain { [item ^owner <o> ^v <v> ^k <k>] <S> }
  :scalar (<o>)
  -->
  (write kept <o> (sum <v>) (avg <v>) (min <v>))
  (foreach <k> (write fresh <o> (sum <v>) (avg <v>) (min <v>))))
(p both (owner ^name <o>) { [item ^owner <o> ^v <v> ^k <k>] <S> }
  :test ((count <S>) >= 2)
  -->
  (write kept <o> (count <S>) (avg <S> ^v))
  (foreach <k> (write fresh <o> (count <S>) (avg <S> ^v))))
"""

# Ints, floats whose running sum is order-sensitive in the last bits,
# and a symbol no sum or avg accepts.
_VALUES = [0, 1, 2, 3, 0.1, 0.2, 2.5, "x"]
_value = st.sampled_from(_VALUES)

_op = st.one_of(
    st.tuples(st.just("item"), st.sampled_from(["a", "b"]), _value),
    st.tuples(st.just("owner"), st.sampled_from(["a", "b"]), st.just(0)),
    st.tuples(st.just("modify"), st.integers(0, 30), _value),
    st.tuples(st.just("rekey"), st.integers(0, 30),
              st.sampled_from(["a", "b"])),
    st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
)

# A scenario is a sequence of batches; True entries mean "run to
# quiescence here" so later batches exercise refire semantics.
_scenario = st.lists(
    st.one_of(
        st.lists(_op, min_size=1, max_size=6),
        st.just(True),
    ),
    min_size=1,
    max_size=6,
)


def _build_engines(program=PROGRAM):
    configs = {
        "rete-batched": ReteNetwork(batched=True),
        "rete-replay": ReteNetwork(batched=False),
        "naive": NaiveMatcher(),
        "dips": DipsMatcher(backend="memory"),
        "dips-sqlite": DipsMatcher(backend="sqlite"),
    }
    engines = {}
    for name, matcher in configs.items():
        engine = RuleEngine(matcher=matcher, stats=MatchStats(),
                            on_error="skip")
        engine.load(program)
        engines[name] = engine
    return engines


def _assert_kept_equals_fresh(output):
    """Every maintained read is followed by the same values, rebuilt."""
    lines = [line.split() for line in output]
    for index, line in enumerate(lines):
        if line[0] == "kept":
            assert lines[index + 1] == ["fresh"] + line[1:], (index, output)


#: A negated CE followed by a join and by a set CE on the same owner.
GUARDED = """
(literalize item owner v k)
(literalize owner name)
(p guarded (item ^owner <o> ^v 1) -(owner ^name <o>)
  (item ^owner <o> ^v 2) --> (write guarded <o>))
(p sweep (item ^owner <o> ^v 1) -(owner ^name <o>)
  { [item ^owner <o> ^v <v>] <S> }
  --> (write sweep <o> (count <S>) (sum <S> ^v)))
"""


def _apply_ops(engine, ops, made):
    """Apply *ops* one by one; mutates *made* in WM order."""
    for kind, first, second in ops:
        if kind == "item":
            made.append(engine.make("item", owner=first, v=second, k=0))
        elif kind == "owner":
            made.append(engine.make("owner", name=first))
        else:
            live = [w for w in made if w in engine.wm]
            if not live:
                continue
            target = live[first % len(live)]
            if kind == "modify":
                if target.wme_class == "item":
                    made.append(engine.modify(target, v=second))
                else:
                    made.append(engine.modify(target))
            elif kind == "rekey":
                key = "owner" if target.wme_class == "item" else "name"
                made.append(engine.modify(target, **{key: second}))
            else:
                engine.remove(target)


def _apply_batch(engine, ops, made):
    """One engine.batch() applying *ops*."""
    with engine.batch():
        _apply_ops(engine, ops, made)


def _conflict_order(engine):
    return [
        (inst.rule.name, inst.recency_key())
        for inst in engine.conflict_set.ordered(engine.strategy)
        if inst.eligible()
    ]


def _check_scenario(program, scenario):
    """Run *scenario* on every matcher; each must match the per-event
    reference after every step and in its final drain."""
    engines = _build_engines(program)
    mades = {name: [] for name in engines}
    fired = {name: [] for name in engines}
    for step in scenario:
        for name, engine in engines.items():
            if step is True:
                engine.run()
                fired[name] = [
                    (f.rule_name, f.time_tags)
                    for f in engine.tracer.firings
                ]
            else:
                _apply_batch(engine, step, mades[name])
        orders = {
            name: _conflict_order(engine)
            for name, engine in engines.items()
        }
        baseline = orders["rete-replay"]
        for name, order in orders.items():
            assert order == baseline, (name, order, baseline)
        baseline_fired = fired["rete-replay"]
        for name, sequence in fired.items():
            assert sequence == baseline_fired, name

    # Final drain: identical firing sequences and outputs.
    outputs = {}
    for name, engine in engines.items():
        engine.run()
        outputs[name] = (
            [(f.rule_name, f.time_tags) for f in engine.tracer.firings],
            engine.output,
        )
    baseline = outputs["rete-replay"]
    for name, result in outputs.items():
        assert result == baseline, name
    _assert_kept_equals_fresh(baseline[1])

    # One Figure 3 decide stage: every matcher's S-nodes send the marks
    # Rete's do.  The SOIs a batch touches may differ (Rete can create
    # and delete one token inside a batch), so those are not compared.
    marks = {name: _snode_marks(engine) for name, engine in engines.items()}
    for name in ("naive", "dips", "dips-sqlite"):
        assert marks[name] == marks["rete-batched"], (name, marks)


def _snode_marks(engine):
    totals = engine.stats.totals
    return {kind: totals.get(f"snode_marks_{kind}", 0)
            for kind in ("add", "remove", "time")}


_A1 = ("item", "a", 1)


class TestBatchEquivalence:
    # Both sides of a join, and a self-join's two levels, in one batch.
    @example([[_A1, ("owner", "a", 0), _A1], True])
    # A modify that keeps the join key, then one that changes it.
    @example([[("owner", "a", 0), ("owner", "b", 0), _A1, _A1], True,
              [("modify", 2, 3)], True, [("rekey", 3, "b")], True])
    # Remove, then re-add the same content, inside one batch.
    @example([[("owner", "a", 0), _A1, _A1], True,
              [("remove", 1, 0), _A1], True])
    # A negated CE's blocker added, then removed beside a positive change.
    @example([[_A1, ("item", "b", 2)], True, [("owner", "a", 0)], True,
              [("remove", 2, 0), ("item", "b", 3)], True])
    # Every token of SOI a leaves in one batch, then its key comes back.
    @example([[_A1, _A1, ("item", "b", 2), ("owner", "a", 0)], True,
              [("remove", 0, 0), ("remove", 0, 0), _A1], True])
    # Every member of SOI a modified in one batch (set-modify's shape).
    @example([[_A1, ("item", "a", 2)], True,
              [("modify", 0, 3), ("modify", 0, 0.1)], True])
    # Part of SOI a leaves: one removed, one modified, one kept.
    @example([[_A1, ("item", "a", 2), ("item", "a", 3)], True,
              [("remove", 1, 0), ("modify", 0, 0.1)], True])
    # A negated CE's blocker removed together with its join partner,
    # in both orders.
    @example([[_A1, ("owner", "a", 0), ("item", "b", 2)], True,
              [("remove", 1, 0), ("remove", 0, 0)], True])
    @example([[_A1, ("owner", "a", 0), ("item", "b", 2)], True,
              [("remove", 0, 0), ("remove", 0, 0)], True])
    @given(_scenario)
    @settings(max_examples=60, deadline=None)
    def test_identical_conflict_sets_and_firings(self, scenario):
        _check_scenario(PROGRAM, scenario)

    @pytest.mark.parametrize("scenario", [
        # The blocker and both downstream partners leave in one batch;
        # then they come back.
        [[("remove", 3, 0), ("remove", 1, 0), ("remove", 1, 0)], True,
         [("item", "a", 2), ("owner", "a", 0)], True],
        # The blocker and the upstream partner leave in one batch.
        [[("remove", 3, 0), ("remove", 0, 0)], True],
        # The blocker leaves while every set member is modified.
        [[("remove", 3, 0), ("modify", 1, 2), ("modify", 1, 2)], True],
    ], ids=["downstream", "upstream", "modified"])
    def test_blocker_leaves_with_its_partners(self, scenario):
        """A negated CE with a join and a set CE after it: a released
        blocker's token joins only what survives the batch."""
        setup = [[("item", "a", 1), ("item", "a", 2), ("item", "a", 2),
                  ("owner", "a", 0)], True]
        _check_scenario(GUARDED, setup + scenario)
    @given(st.lists(_op, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_single_batch_equals_incremental(self, ops):
        """One batch vs. the same ops applied without batching."""
        batched = _build_engines()["rete-batched"]
        plain_engine = RuleEngine(matcher=ReteNetwork(batched=True),
                                  on_error="skip")
        plain_engine.load(PROGRAM)

        made = []
        _apply_batch(batched, ops, made)
        # Apply per-event (no batch): same ops, immediate propagation.
        _apply_ops(plain_engine, ops, [])

        assert _conflict_order(batched) == _conflict_order(plain_engine)
        batched.run()
        plain_engine.run()
        assert batched.output == plain_engine.output
