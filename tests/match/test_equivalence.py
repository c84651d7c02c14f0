"""Differential testing: all three matchers must agree, always.

Rete is incremental and clever; the naive matcher recomputes from
scratch and is "obviously correct".  Hypothesis drives random WM
operation sequences through a fixed rule portfolio and asserts the
conflict sets (as comparable snapshots) stay identical across Rete,
naive, and DIPS.  A second axis generates the rules themselves
(:class:`TestGeneratedPrograms`): random constant and join predicates,
operands and disjunctions, so Rete's compiled predicates are held to
naive's interpreted ones on every test shape.

A snapshot also carries what γ-memory maintains for each SOI — the
aggregates of ``:test`` and those only the RHS reads — and holds every
exact value to a fold of the SOI's tokens from nothing, so the matchers
agree with each other and with what an RHS would have computed itself.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import RuleEngine
from repro.dips import DipsMatcher
from repro.errors import EngineError, ReproError
from repro.lang.parser import parse_rule
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork
from repro.rete.aggregates import AggregateState
from repro.wm import WorkingMemory


def _value_or_error(state):
    try:
        return state.value()
    except EngineError as error:
        return str(error)


def _maintained(inst):
    """The SOI's maintained aggregates, each checked against a rebuild."""
    if not inst.is_set_oriented:
        return ()
    values = []
    for state in inst.soi.agg_states:
        fresh = AggregateState(state.spec)
        for token in inst.tokens():
            fresh.add_token(token)
        assert state.is_exact() == fresh.is_exact()
        value = _value_or_error(state)
        if state.is_exact():
            assert repr(value) == repr(_value_or_error(fresh))
            values.append((state.spec.identity, state.spec.readers, value))
    return tuple(values)


class SnapshotListener:
    """Tracks live instantiations in a comparable canonical form."""

    def __init__(self):
        self.live = {}

    def insert(self, inst):
        self.live[inst.identity()] = inst

    def retract(self, inst):
        self.live.pop(inst.identity(), None)

    def reposition(self, inst):
        pass

    def snapshot(self):
        entries = []
        for inst in self.live.values():
            token_tags = sorted(
                tuple(
                    wme.time_tag if wme is not None else 0
                    for wme in token.wmes()
                )
                for token in inst.tokens()
            )
            entries.append(
                (inst.rule.name, tuple(token_tags), _maintained(inst))
            )
        return sorted(entries, key=repr)


RULES = [
    # Plain join.
    "(p join (item ^owner <o>) (owner ^name <o>) --> (halt))",
    # Negation.
    "(p lonely (item ^owner <o>) -(owner ^name <o>) --> (halt))",
    # Pure set rule.
    "(p allitems [item ^v <v>] --> (halt))",
    # Partitioned set rule with :scalar and a count test.
    "(p groups { [item ^owner <o>] <S> } :scalar (<o>) "
    ":test ((count <S>) >= 2) --> (halt))",
    # Mixed scalar + set CEs with a numeric aggregate.
    "(p heavy (owner ^name <o>) { [item ^owner <o> ^v <v>] <S> } "
    ":test ((sum <S> ^v) > 10) --> (halt))",
    # Same-class self-join between a scalar and a set CE.
    "(p selfjoin (item ^owner <o>) [item ^owner <o>] --> (halt))",
    # Tuple self-join over one class: one WME can sit at both levels.
    "(p twins (item ^owner <o> ^v <v>) (item ^owner <o> ^v >= <v>) "
    "--> (halt))",
    # Aggregates only the RHS reads: over a CE ^attr with :scalar ...
    "(p rhs-ce { [item ^owner <o> ^w <w>] <S> } :scalar (<o>) "
    "--> (write (avg <S> ^w) (min <S> ^w)) (if ((max <S> ^w) > 1) (halt)))",
    # ... over a set PV's domain without it ...
    "(p rhs-pv [item ^w <w>] --> (make owner ^name (sum <w>)) "
    "(bind <top> (max <w>)) (foreach <w> (write (count <w>))))",
    # ... and one aggregate read by both halves of the rule.
    "(p rhs-both (owner ^name <o>) { [item ^owner <o> ^w <w>] <S> } "
    ":test ((count <S>) >= 1) --> (write (count <S>) (sum <S> ^w)))",
]

# DIPS now supports negation through residual blocker checks, so it
# runs the full portfolio.
DIPS_RULES = RULES

OWNERS = ["ann", "bob", "cat"]

# ^w, which only RHS aggregates read: ints, floats whose running sum is
# order-sensitive in the last bits, and a symbol no sum or avg accepts.
W_VALUES = [0, 1, 2, 7, 0.1, 0.2, 2.5, "x"]


_WM_OPS = st.one_of(
    st.tuples(
        st.just("make-item"),
        st.sampled_from(OWNERS),
        st.integers(0, 9),
        st.sampled_from(W_VALUES),
    ),
    st.tuples(st.just("make-owner"), st.sampled_from(OWNERS)),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(
        st.just("modify"),
        st.integers(0, 30),
        st.sampled_from(OWNERS),
        st.integers(0, 9),
    ),
)


@st.composite
def operation_sequences(draw):
    """Ops: ('make-item', owner, v, w) | ('make-owner', o) | ('remove', i)
    | ('modify', i, owner, v) — an item's join key and value, an owner's
    name — | ('batch', (op, ...)), one delta-set | ('excise', 0)."""
    ops = draw(
        st.lists(
            st.one_of(
                _WM_OPS,
                st.tuples(st.just("excise"), st.just(0)),
                st.tuples(
                    st.just("batch"),
                    st.lists(_WM_OPS, min_size=1, max_size=6).map(tuple),
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return ops


def _apply(wm, made, op):
    if op[0] == "make-item":
        made.append(wm.make("item", owner=op[1], v=op[2], w=op[3]))
    elif op[0] == "make-owner":
        made.append(wm.make("owner", name=op[1]))
    else:
        live = [w for w in made if w in wm]
        if not live:
            return
        target = live[op[1] % len(live)]
        if op[0] == "remove":
            wm.remove(target)
        elif target.wme_class == "item":
            made.append(wm.modify(target, owner=op[2], v=op[3]))
        else:
            made.append(wm.modify(target, name=op[2]))


def drive(matcher, rules, ops):
    wm = WorkingMemory()
    listener = SnapshotListener()
    matcher.set_listener(listener)
    matcher.attach(wm)
    for source in rules:
        matcher.add_rule(parse_rule(source))
    made = []
    snapshots = []
    for op in ops:
        if op[0] == "batch":
            with wm.batch():
                for inner in op[1]:
                    _apply(wm, made, inner)
        elif op[0] == "excise":  # the self-join rule (idempotent)
            try:
                matcher.remove_rule("selfjoin")
            except ReproError:
                pass  # already excised earlier in the sequence
        else:
            _apply(wm, made, op)
        snapshots.append(listener.snapshot())
    return snapshots


# What a delta-driven matcher can get wrong, pinned: each is one batch
# (after a little set-up) that the random sequences only sometimes draw.
_ITEM = ("make-item", "ann", 3, 1)
DELTA_CASES = [
    # Both sides of a join arrive in one delta-set (ΔR ⋈ ΔS).
    [("batch", (_ITEM, ("make-owner", "ann"), ("make-item", "ann", 5, 2)))],
    # A self-join's two levels matched by the same new WMEs.
    [("batch", (_ITEM, _ITEM, ("make-item", "ann", 4, 0)))],
    # A modify that keeps the join key, then one that changes it.
    [("make-owner", "ann"), ("make-owner", "bob"), _ITEM, _ITEM,
     ("batch", (("modify", 2, "ann", 7),)),
     ("batch", (("modify", 3, "bob", 7),))],
    # Remove, then re-add the same content, inside one batch.
    [("make-owner", "ann"), _ITEM, _ITEM,
     ("batch", (("remove", 1), _ITEM))],
    # A negated CE's blocker added and removed, alone and beside a
    # positive change: the one case that takes the full refresh.
    [_ITEM, ("make-item", "bob", 1, 1),
     ("batch", (("make-owner", "ann"),)),
     ("batch", (("remove", 2), ("make-item", "bob", 2, 2))),
     ("batch", (("make-owner", "bob"), ("remove", 0)))],
]


def _delta_examples(test):
    for case in DELTA_CASES:
        test = example(case)(test)
    return test


class TestIncrementalEquivalence:
    @given(operation_sequences())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rete_equals_naive(self, ops):
        assert drive(ReteNetwork(), RULES, ops) == drive(
            NaiveMatcher(), RULES, ops
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @_delta_examples
    @given(operation_sequences())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dips_equals_naive(self, backend, ops):
        matcher = DipsMatcher(backend=backend)
        try:
            assert drive(matcher, DIPS_RULES, ops) == drive(
                NaiveMatcher(), DIPS_RULES, ops
            )
        finally:
            matcher.close()


class TestEngineLevelEquivalence:
    """Whole-program equivalence: same firings, same output, same WM."""

    PROGRAM = """
    (literalize player name team)
    (p RemoveDups
      { [player ^name <n> ^team <t>] <P> }
      :scalar (<n> <t>)
      :test ((count <P>) > 1)
      -->
      (bind <First> true)
      (foreach <P> descending
        (if (<First> == true)
          (bind <First> false)
         else
          (remove <P>))))
    """

    @pytest.mark.parametrize(
        "matcher_cls", [ReteNetwork, NaiveMatcher, DipsMatcher]
    )
    def test_remove_dups_program(self, matcher_cls):
        engine = RuleEngine(matcher=matcher_cls())
        engine.load(self.PROGRAM)
        roster = [
            ("A", "Jack"), ("A", "Jack"), ("B", "Sue"),
            ("B", "Sue"), ("B", "Sue"), ("A", "Pat"),
        ]
        for team, name in roster:
            engine.make("player", team=team, name=name)
        engine.run(limit=20)
        remaining = sorted(
            (w.get("name"), w.get("team")) for w in engine.wm
        )
        assert remaining == [("Jack", "A"), ("Pat", "A"), ("Sue", "B")]

    @pytest.mark.parametrize(
        "matcher_cls", [ReteNetwork, NaiveMatcher, DipsMatcher]
    )
    def test_backfill_after_excise_and_readd(self, matcher_cls):
        """A rule re-added after excise back-fills from live WM, facts
        asserted while no rule watched their class included."""
        rule = ("(p watch-item (item ^kind <k> ^v <v>)"
                " --> (write item <k> <v>))")
        engine = RuleEngine(matcher=matcher_cls())
        engine.load("(literalize item kind v)")
        engine.make("item", kind="a", v=1)
        engine.make("item", kind="b", v=2)
        engine.add_rule(rule)
        assert len(engine.conflict_set) == 2
        engine.excise("watch-item")
        assert len(engine.conflict_set) == 0
        engine.make("item", kind="c", v=9)
        engine.add_rule(rule)
        assert len(engine.conflict_set) == 3
        assert engine.run() == 3
        assert sorted(engine.output) == ["item a 1", "item b 2", "item c 9"]


# -- generated programs ------------------------------------------------------

_CONST_PREDICATES = ["=", "<>", "<", "<=", ">", ">="]
# No '<=>' here: the DIPS matcher has no SQL translation for it.  The
# predicate grid in tests/rete/test_kernels.py covers it.
_JOIN_PREDICATES = _CONST_PREDICATES


def _program(const_pred, const_val, join_pred, disjunction):
    """A rule portfolio with randomized test shapes.

    Always includes: a two-CE positive join whose second CE carries a
    constant test (a symbol operand is out of domain for the order
    predicates), a join probed on one test with the generated predicate
    as its residual, the same predicate as a join's only test (a scan
    unless it is ``=``), a negated-CE rule, a disjunction alpha test,
    and a set-oriented aggregate rule — so alpha predicates, probes,
    scans, negative nodes and S-node feeding all run.
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
(p spread (owner ^name <o> ^cap <c>) (item ^v {join_pred} <c>)
  --> (write spread <o>))
(p pick (item ^v << {disj} >>) --> (write picked))
(p lonely (item ^owner <o>) -(owner ^name <o>) --> (write <o>))
(p tally {{ [item ^owner <o> ^v <v>] <S> }}
  :scalar (<o>)
  :test ((count <S>) >= 2)
  -->
  (write <o> (count <S>)))
"""


_GENERATED_OP = st.one_of(
    st.tuples(st.just("item"), st.sampled_from(["a", "b"]),
              st.integers(0, 3)),
    st.tuples(st.just("owner"), st.sampled_from(["a", "b"]),
              st.integers(0, 3)),
    st.tuples(st.just("modify"), st.integers(0, 30), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 30), st.just(0)),
)

# Each step is one batch of ops, or True for a run to quiescence.
_GENERATED_SCENARIO = st.lists(
    st.one_of(st.lists(_GENERATED_OP, min_size=1, max_size=5),
              st.just(True)),
    min_size=1,
    max_size=5,
)

_SHAPE = st.tuples(
    st.sampled_from(_CONST_PREDICATES),
    st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"])),
    st.sampled_from(_JOIN_PREDICATES),
    st.lists(
        st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"])),
        min_size=1, max_size=3, unique=True,
    ),
)

GENERATED_MATCHERS = {
    "naive": NaiveMatcher,
    "rete": ReteNetwork,
    "dips": DipsMatcher,
}


def _apply_generated(engine, ops, made):
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


def _outcome(engine):
    return (
        [(f.rule_name, f.time_tags) for f in engine.tracer.firings],
        engine.output,
    )


class TestGeneratedPrograms:
    @given(_SHAPE, _GENERATED_SCENARIO)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matchers_equal_naive(self, shape, scenario):
        """Same conflict set after every step, same firings and output."""
        engines = {}
        for name, make in GENERATED_MATCHERS.items():
            engines[name] = RuleEngine(matcher=make())
            engines[name].load(_program(*shape))
        made = {name: [] for name in engines}
        for step in scenario:
            for name, engine in engines.items():
                if step is True:
                    engine.run()
                else:
                    _apply_generated(engine, step, made[name])
            expected = _conflict_order(engines["naive"])
            for name, engine in engines.items():
                assert _conflict_order(engine) == expected, name
        for engine in engines.values():
            engine.run()
        expected = _outcome(engines["naive"])
        for name, engine in engines.items():
            assert _outcome(engine) == expected, name

    @given(_SHAPE)
    @settings(max_examples=20, deadline=None)
    def test_backfill_after_facts_equals_naive(self, shape):
        """Rules added over existing WMEs build their memories by
        backfill, which runs the same compiled predicates."""
        results = {}
        for name in ("naive", "rete"):
            engine = RuleEngine(matcher=GENERATED_MATCHERS[name]())
            engine.load("(literalize item owner v)\n"
                        "(literalize owner name cap)")
            for i in range(4):
                engine.make("item", owner="a" if i % 2 else "b", v=i)
                engine.make("owner", name="a", cap=i)
            engine.load(_program(*shape))
            engine.run()
            results[name] = (_conflict_order(engine), engine.output)
        assert results["rete"] == results["naive"]
