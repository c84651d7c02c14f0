"""Compiled kernels are observationally identical to the interpreter.

Two differential axes:

* **Across kernel modes** — for hypothesis-generated rule programs
  (randomized constant predicates, disjunctions, join predicates, a
  negated CE, a set-oriented aggregate) and random op sequences, a
  Rete network with ``kernels=off`` / ``closure`` and a sharded
  network reach bit-identical conflict sets, firing sequences, and
  outputs.
* **Across matchers** — the interpreted comparison matchers (treat,
  naive, dips) agree with every kernelized configuration on the same
  scenarios, so a kernel bug cannot hide behind a matcher-specific
  quirk.

A direct network-level test additionally drives the defensive paths
working memory cannot produce — unhashable join-key values (lists) and
out-of-domain values (None) — through both kernel modes, since
those fall back from index probes to scans post-filtered by the full
(compiled) test list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RuleEngine
from repro.dips.matcher import DipsMatcher
from repro.match import NaiveMatcher, TreatMatcher
from repro.rete import ReteNetwork, ShardedReteNetwork

_CONST_PREDICATES = ["=", "<>", "<", "<=", ">", ">="]
# No '<=>' here: the DIPS matcher has no SQL translation for it.  The
# kernel-vs-interpreter grid in tests/rete/test_kernels.py covers it.
_JOIN_PREDICATES = ["=", "<>", "<", "<=", ">", ">="]


def _program(const_pred, const_val, join_pred, disjunction):
    """A rule portfolio with randomized test shapes.

    Always includes: a two-CE positive join whose second CE carries a
    constant test and an extra (non-equality capable) join predicate, a
    negated-CE rule, a disjunction alpha test, and a set-oriented
    aggregate rule — so alpha kernels, join kernels, residual-test
    kernels, negative-node kernels, and S-node feeding are all in play.
    """
    disj = " ".join(str(x) for x in disjunction)
    return f"""
(literalize item owner v)
(literalize owner name cap)
(p pair (item ^owner <o> ^v <v>)
        (owner ^name <o> ^cap {const_pred} {const_val}) -->
  (write <o> <v>))
(p rel (item ^owner <o> ^v <v>) (owner ^name <o> ^cap {join_pred} <v>)
  --> (write rel <o>))
(p pick (item ^v << {disj} >>) --> (write picked))
(p lonely (item ^owner <o>) -(owner ^name <o>) --> (write <o>))
(p tally {{ [item ^owner <o> ^v <v>] <S> }}
  :scalar (<o>)
  :test ((count <S>) >= 2)
  -->
  (write <o> (count <S>)))
"""


_op = st.one_of(
    st.tuples(st.just("item"), st.sampled_from(["a", "b"]),
              st.integers(0, 3)),
    st.tuples(st.just("owner"), st.sampled_from(["a", "b"]),
              st.integers(0, 3)),
    st.tuples(st.just("modify"), st.integers(0, 30), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
)

_scenario = st.lists(
    st.one_of(st.lists(_op, min_size=1, max_size=5), st.just(True)),
    min_size=1,
    max_size=5,
)

_shape = st.tuples(
    st.sampled_from(_CONST_PREDICATES),
    st.integers(0, 3),
    st.sampled_from(_JOIN_PREDICATES),
    st.lists(
        st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"])),
        min_size=1, max_size=3, unique=True,
    ),
)


def _build_engines(program):
    configs = {
        "rete-off": ReteNetwork(kernels="off"),
        "rete-closure": ReteNetwork(kernels="closure"),
        "sharded-closure": ShardedReteNetwork(
            shards=2, kernels="closure"
        ),
        "treat": TreatMatcher(),
        "naive": NaiveMatcher(),
        "dips": DipsMatcher(),
    }
    engines = {}
    for name, matcher in configs.items():
        engine = RuleEngine(matcher=matcher)
        engine.load(program)
        engines[name] = engine
    return engines


def _apply_batch(engine, ops, made):
    with engine.batch():
        for kind, first, second in ops:
            if kind == "item":
                made.append(engine.make("item", owner=first, v=second))
            elif kind == "owner":
                made.append(engine.make("owner", name=first, cap=second))
            else:
                live = [w for w in made if w in engine.wm]
                if not live:
                    continue
                target = live[first % len(live)]
                if kind == "modify":
                    if target.wme_class == "item":
                        made.append(engine.modify(target, v=second))
                    else:
                        made.append(engine.modify(target, cap=second))
                else:
                    engine.remove(target)


def _conflict_order(engine):
    return [
        (inst.rule.name, inst.recency_key())
        for inst in engine.conflict_set.ordered(engine.strategy)
        if inst.eligible()
    ]


class TestKernelModeEquivalence:
    @given(_shape, _scenario)
    @settings(max_examples=40, deadline=None)
    def test_modes_and_matchers_agree(self, shape, scenario):
        engines = _build_engines(_program(*shape))
        mades = {name: [] for name in engines}
        for step in scenario:
            for name, engine in engines.items():
                if step is True:
                    engine.run()
                else:
                    _apply_batch(engine, step, mades[name])
            orders = {
                name: _conflict_order(engine)
                for name, engine in engines.items()
            }
            baseline = orders["rete-off"]
            for name, order in orders.items():
                assert order == baseline, (name, order, baseline)
        outputs = {}
        for name, engine in engines.items():
            engine.run()
            outputs[name] = (
                [(f.rule_name, f.time_tags)
                 for f in engine.tracer.firings],
                engine.output,
            )
        baseline = outputs["rete-off"]
        for name, result in outputs.items():
            assert result == baseline, name

    @given(_shape)
    @settings(max_examples=20, deadline=None)
    def test_backfill_after_facts_agrees(self, shape):
        """Rules added after WMEs exercise the kernelized backfill."""
        program = _program(*shape)
        results = {}
        for mode in ("off", "closure"):
            engine = RuleEngine(matcher=ReteNetwork(kernels=mode))
            engine.load("(literalize item owner v)\n"
                        "(literalize owner name cap)")
            for i in range(4):
                engine.make("item", owner="a" if i % 2 else "b", v=i)
                engine.make("owner", name="a", cap=i)
            engine.load(program)
            engine.run()
            results[mode] = (
                _conflict_order(engine),
                engine.output,
            )
        assert results["closure"] == results["off"]


class _OddWME:
    """WME-shaped object carrying values working memory would reject."""

    def __init__(self, tag, **values):
        self.wme_class = "a"
        self.time_tag = tag
        self._values = values

    def get(self, attribute):
        return self._values.get(attribute)

    def __repr__(self):
        return f"_OddWME({self.time_tag}, {self._values})"


class TestUnhashableJoinKeys:
    def test_kernel_modes_agree_on_exotic_values(self):
        """Lists/None as join keys: scan fallbacks stay equivalent.

        An unhashable probe value falls back from the index probe to a
        full scan post-filtered by the (compiled) test list; stored
        unhashable values live in the sentinel bucket every probe also
        returns.  Both modes must produce identical insert/retract
        streams.
        """
        from repro.lang import parse_rule
        from repro.match.base import CountingListener
        from repro.wm.events import ADD, REMOVE, WMEvent

        rule = parse_rule("(p self (a ^k <v>) (a ^k <v>) --> (halt))")
        streams = {}
        for mode in ("off", "closure"):
            network = ReteNetwork(kernels=mode)
            listener = CountingListener()
            network.set_listener(listener)
            network.add_rule(rule)
            unhashable = _OddWME(1, k=[1, 2])
            odd_none = _OddWME(2, k=None)
            plain_a = _OddWME(3, k=5)
            plain_b = _OddWME(4, k=5)
            network.on_batch([
                WMEvent(ADD, unhashable),
                WMEvent(ADD, odd_none),
                WMEvent(ADD, plain_a),
                WMEvent(ADD, plain_b),
            ])
            inserted = listener.inserts
            network.on_batch([WMEvent(REMOVE, plain_b)])
            streams[mode] = (inserted, listener.inserts,
                             listener.retracts)
        assert streams["closure"] == streams["off"]
        # The two k=5 WMEs self-join both ways, plus each with itself.
        assert streams["off"][0] == 4
