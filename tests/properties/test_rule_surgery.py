"""Property: runtime rule surgery is equivalent to building fresh.

Hypothesis interleaves ``add_rule`` / ``excise`` / ``replace_rule``
with working-memory asserts and retracts across all three matchers.
After every step the surviving engine must agree with an *oracle*: a
fresh engine of the same matcher whose final rule set is installed
first and whose full make/remove history is then replayed in order
(so time tags align).  Agreement means the same conflict set in the
same strategy order — which covers matching, recency, and that no
stale instantiations of excised rules linger.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RuleEngine
from repro.dips import DipsMatcher
from repro.errors import ReproError
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork

LITERALIZE = """
(literalize item owner v)
(literalize owner name)
"""

#: Rule portfolio keyed by name; surgery ops pick from this pool so
#: the oracle can reinstall "whatever is currently loaded" by name.
PORTFOLIO = {
    "join": "(p join (item ^owner <o>) (owner ^name <o>) "
            "--> (write join <o>))",
    "lonely": "(p lonely (item ^owner <o>) -(owner ^name <o>) "
              "--> (write lonely <o>))",
    "allitems": "(p allitems [item ^v <v>] --> (write all))",
    "groups": "(p groups { [item ^owner <o>] <S> } :scalar (<o>) "
              ":test ((count <S>) >= 2) --> (write group <o>))",
}

#: Alternate bodies for replace: same names, different guts.
VARIANTS = {
    "join": "(p join (item ^owner <o>) (owner ^name <o>) "
            "--> (write join2 <o>))",
    "lonely": "(p lonely (item ^v {<v> > 4}) --> (write big <v>))",
    "allitems": "(p allitems [item ^owner <o>] :scalar (<o>) "
                "--> (write per <o>))",
    "groups": "(p groups { [item ^owner <o>] <S> } :scalar (<o>) "
              ":test ((count <S>) >= 3) --> (write group3 <o>))",
}

OWNERS = ["ann", "bob"]
RULE_NAMES = sorted(PORTFOLIO)

MATCHERS = {
    "rete": lambda: ReteNetwork(),
    "naive": lambda: NaiveMatcher(),
    "dips": lambda: DipsMatcher(),
}


@st.composite
def surgery_sequences(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("make"),
                    st.sampled_from(OWNERS),
                    st.integers(0, 9),
                ),
                st.tuples(st.just("make-owner"), st.sampled_from(OWNERS)),
                st.tuples(st.just("remove"), st.integers(0, 30)),
                st.tuples(st.just("add"), st.sampled_from(RULE_NAMES)),
                st.tuples(st.just("excise"), st.sampled_from(RULE_NAMES)),
                st.tuples(st.just("replace"),
                          st.sampled_from(RULE_NAMES)),
            ),
            min_size=1,
            max_size=20,
        )
    )


def conflict_order(engine):
    return [
        (inst.rule.name, tuple(inst.recency_key()))
        for inst in engine.conflict_set.ordered(engine.strategy)
    ]


def _fresh(make_matcher, loaded, history):
    """The oracle: current rules first, then the WM history replayed."""
    oracle = RuleEngine(matcher=make_matcher())
    oracle.load(LITERALIZE)
    for name in sorted(loaded):
        oracle.add_rule(loaded[name])
    made = []
    for op in history:
        if op[0] == "make":
            made.append(oracle.make("item", owner=op[1], v=op[2]))
        elif op[0] == "make-owner":
            made.append(oracle.make("owner", name=op[1]))
        else:
            oracle.remove(made[op[1]])
    return oracle


def _close(engine):
    close = getattr(engine.matcher, "close", None)
    if close is not None:
        close()


def drive(make_matcher, ops):
    engine = RuleEngine(matcher=make_matcher())
    engine.load(LITERALIZE)
    loaded = {}
    history = []
    made = []

    def live_indexes():
        return [i for i, w in enumerate(made) if w in engine.wm]

    for op in ops:
        kind = op[0]
        if kind == "make":
            made.append(engine.make("item", owner=op[1], v=op[2]))
            history.append(op)
        elif kind == "make-owner":
            made.append(engine.make("owner", name=op[1]))
            history.append(op)
        elif kind == "remove":
            live = live_indexes()
            if not live:
                continue
            index = live[op[1] % len(live)]
            engine.remove(made[index])
            history.append(("remove", index))
        elif kind == "add":
            if op[1] in loaded:
                continue
            source = PORTFOLIO[op[1]]
            engine.add_rule(source)
            loaded[op[1]] = source
        elif kind == "excise":
            if op[1] not in loaded:
                continue
            engine.excise(op[1])
            del loaded[op[1]]
        else:  # replace
            if op[1] not in loaded:
                continue
            current = loaded[op[1]]
            source = (
                VARIANTS[op[1]] if current == PORTFOLIO[op[1]]
                else PORTFOLIO[op[1]]
            )
            engine.replace_rule(op[1], source)
            loaded[op[1]] = source

        oracle = _fresh(make_matcher, loaded, history)
        try:
            assert conflict_order(engine) == conflict_order(oracle), (
                f"diverged after {op!r}"
            )
        finally:
            _close(oracle)
    _close(engine)


class TestSurgeryEquivalence:
    @pytest.mark.parametrize("name", sorted(MATCHERS))
    @given(ops=surgery_sequences())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_surgery_equals_fresh_build(self, name, ops):
        drive(MATCHERS[name], ops)

    @given(ops=surgery_sequences())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_refraction_survives_surgery(self, ops):
        """Firing then doing surgery never refires untouched rules."""
        engine = RuleEngine(matcher=ReteNetwork())
        engine.load(LITERALIZE)
        engine.add_rule(PORTFOLIO["join"])
        engine.make("item", owner="ann", v=1)
        engine.make("owner", name="ann")
        assert engine.run() == 1
        # Surgery on OTHER rules must not re-arm the fired join.
        for op in ops:
            if op[0] == "add" and op[1] != "join":
                try:
                    engine.add_rule(PORTFOLIO[op[1]])
                except ReproError:
                    pass
            elif op[0] == "excise" and op[1] != "join":
                try:
                    engine.excise(op[1])
                except ReproError:
                    pass
        engine.run()
        assert engine.output.count("join ann") == 1
