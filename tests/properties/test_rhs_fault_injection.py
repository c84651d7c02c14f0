"""Atomic-firing property: a failed RHS leaves no trace. All matchers.

The reliability contract (``docs/RELIABILITY.md``): injecting an
exception at **every action index of every firing** of a workload must
leave working memory, the conflict set (contents + refire
eligibility), the time-tag counter, the trace output, and — under
DIPS — the COND tables byte-identical to the state with that firing
never attempted.  On top of the rollback:

* under ``retry``, a transient fault converges to the exact fault-free
  final state;
* under ``quarantine``, a persistently poison rule converges to the
  fault-free final state of the same program with that rule excised;
* a crash injected *during* the rollback itself still recovers to a
  consistent state via the WAL's bracketed firing transactions.

The exhaustive matrix iterates every (matcher, dispatch index) pair
deterministically; the Hypothesis test layers random workloads and
injection points on top.  ``FAULT_INJECTION_EXAMPLES`` raises the
Hypothesis budget (the CI fault-containment job sets it).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DurabilityConfig, RuleEngine
from repro.dips.matcher import DipsMatcher
from repro.durability import FaultInjector, SimulatedCrash
from repro.engine.rhs import RhsExecutor
from repro.errors import FiringError

from tests.conftest import MATCHER_FACTORIES, cs_state

FAULT_EXAMPLES = int(os.environ.get("FAULT_INJECTION_EXAMPLES", "25"))

# A join, a negation, a multi-action RHS with modify/remove, and a
# set-oriented aggregate — every action kind the executor stages.
PROGRAM = """
(literalize item owner v seen)
(literalize owner name)
(literalize audit owner n)
(p pair (item ^owner <o> ^v <v> ^seen nil) (owner ^name <o>)
  -->
  (make audit ^owner <o> ^n <v>)
  (modify 1 ^seen yes)
  (write <o> <v>))
(p lonely (item ^owner <o> ^v <v> ^seen nil) -(owner ^name <o>)
  -->
  (write lonely <o>)
  (modify 1 ^seen yes))
(p prune (audit ^owner <o> ^n { <n> > 2 })
  -->
  (write prune <o> <n>)
  (remove 1))
(p tally { [audit ^owner <o> ^n <n>] <S> }
  :scalar (<o>)
  :test ((count <S>) >= 2)
  -->
  (write tally <o> (count <S>)))
"""


def seed(engine):
    engine.make("owner", name="a")
    engine.make("item", owner="a", v=1, seen="nil")
    engine.make("item", owner="a", v=3, seen="nil")
    engine.make("item", owner="b", v=2, seen="nil")
    engine.make("item", owner="a", v=2, seen="nil")


def build(matcher_name, **kwargs):
    engine = RuleEngine(matcher=MATCHER_FACTORIES[matcher_name](),
                        **kwargs)
    engine.load(PROGRAM)
    return engine


def wm_state(engine):
    return sorted(
        (w.time_tag, w.wme_class, tuple(sorted(w.as_dict().items())))
        for w in engine.wm
    )


def dips_state(engine):
    """Every COND-table row, byte-for-byte, when the matcher is DIPS."""
    matcher = engine.matcher
    if not isinstance(matcher, DipsMatcher):
        return None
    tables = {}
    for name in sorted(matcher.db._tables):
        table = matcher.db.table(name)
        tables[name] = sorted(repr(row) for row in table.scan())
    return tables


def full_state(engine):
    return (
        wm_state(engine),
        cs_state(engine),
        engine.wm.latest_time_tag,
        engine.halted,
        tuple(engine.output),
        dips_state(engine),
    )


class DispatchFault:
    """Patches RhsExecutor._dispatch to raise at the n-th dispatch.

    Counts every action dispatch across the whole engine run; raising
    exactly once at *target* simulates a fault at that action of that
    firing.  Use as a context manager.
    """

    def __init__(self, target=None):
        self.target = target
        self.count = 0

    def __enter__(self):
        original = RhsExecutor._dispatch
        fault = self

        def patched(executor, action):
            index = fault.count
            fault.count += 1
            if index == fault.target:
                raise ValueError(f"injected at dispatch {index}")
            return original(executor, action)

        self._original = original
        RhsExecutor._dispatch = patched
        return self

    def __exit__(self, *exc_info):
        RhsExecutor._dispatch = self._original
        return False


def count_dispatches(matcher_name):
    """Total action dispatches of the fault-free workload."""
    with DispatchFault(target=None) as fault:
        engine = build(matcher_name)
        seed(engine)
        engine.run()
    return fault.count


def fault_free_final(matcher_name):
    engine = build(matcher_name)
    seed(engine)
    engine.run()
    return full_state(engine)


class TestEveryActionOfEveryFiring:
    """The exhaustive (matcher × dispatch index) rollback matrix."""

    @pytest.mark.parametrize("matcher_name", sorted(MATCHER_FACTORIES))
    def test_rollback_is_byte_identical_then_converges(self,
                                                       matcher_name):
        total = count_dispatches(matcher_name)
        assert total >= 8  # the workload must actually exercise actions
        reference = fault_free_final(matcher_name)
        for target in range(total):
            engine = build(matcher_name)
            seed(engine)
            with DispatchFault(target) as fault:
                failed_at = None
                for _ in range(100):
                    before = full_state(engine)
                    inst = engine.conflict_set.select(engine.strategy)
                    if inst is None or engine.halted:
                        break
                    try:
                        engine.fire(inst)
                    except FiringError as error:
                        failed_at = error
                        # The heart of the contract: the failed firing
                        # left the engine byte-identical to never
                        # having attempted it.
                        assert full_state(engine) == before, (
                            f"{matcher_name}: dispatch {target} of "
                            f"rule {error.rule_name} left residue"
                        )
                        break
                assert failed_at is not None, (
                    f"{matcher_name}: dispatch {target} never raised"
                )
                # The injector is spent: the same instantiation is
                # still eligible, re-fires cleanly, and the run ends
                # exactly where the fault-free run does.
                engine.run()
            assert full_state(engine) == reference, (
                f"{matcher_name}: post-fault run diverged "
                f"(injected at dispatch {target})"
            )


class TestRetryConvergence:
    @pytest.mark.parametrize("matcher_name", sorted(MATCHER_FACTORIES))
    def test_transient_fault_converges_to_fault_free(self, matcher_name):
        total = count_dispatches(matcher_name)
        reference = fault_free_final(matcher_name)
        for target in range(total):
            engine = build(matcher_name, on_error="retry:3")
            seed(engine)
            with DispatchFault(target):
                engine.run()
            state = full_state(engine)
            assert state == reference, (
                f"{matcher_name}: retry after dispatch-{target} fault "
                f"did not converge"
            )
            assert engine.dead_letters == []


def _drop_rule(state, rule_name):
    """Remove one rule's rows from a :func:`dips_state` dump."""
    if state is None:
        return None
    marker = f"'rule_id': '{rule_name}'"
    return {
        table: [row for row in rows if marker not in row]
        for table, rows in state.items()
    }


class TestQuarantineConvergence:
    POISON = "(p poison (item ^owner <o>) --> (call boom))\n"

    @pytest.mark.parametrize("matcher_name", sorted(MATCHER_FACTORIES))
    def test_poison_rule_quarantines_like_an_excise(self, matcher_name):
        def boom(*args):
            raise RuntimeError("always fails")

        engine = RuleEngine(matcher=MATCHER_FACTORIES[matcher_name](),
                            on_error="quarantine:2")
        engine.load(PROGRAM + self.POISON)
        engine.register_function("boom", boom)
        seed(engine)
        engine.run()
        assert set(engine.quarantined_rules()) == {"poison"}
        assert len(engine.dead_letters) == 2
        # Convergence: everything except the poison rule behaved as if
        # that rule had never been loaded.
        reference = build(matcher_name)
        seed(reference)
        reference.run()
        assert wm_state(engine) == wm_state(reference)
        assert tuple(engine.output) == tuple(reference.output)
        # COND rows belonging to the (still-loaded) poison rule are
        # expected; every other rule's rows must match the reference.
        assert _drop_rule(dips_state(engine), "poison") \
            == dips_state(reference)


class TestCrashDuringRollback:
    @pytest.mark.parametrize("matcher_name", sorted(MATCHER_FACTORIES))
    @pytest.mark.parametrize("point", ["fire.rollback", "fire.abort"])
    def test_recovers_consistently_via_abort_record(self, matcher_name,
                                                    point, tmp_path):
        def boom(*args):
            raise RuntimeError("poison")

        fault = FaultInjector(crash_at={point: 1})
        engine = RuleEngine(
            matcher=MATCHER_FACTORIES[matcher_name](),
            on_error="skip",
            durability=DurabilityConfig(tmp_path, fsync="off",
                                        fault=fault),
        )
        engine.load(PROGRAM + TestQuarantineConvergence.POISON)
        engine.register_function("boom", boom)
        with pytest.raises(SimulatedCrash):
            seed(engine)
            engine.run()
        recovered = RuleEngine.recover(tmp_path, on_error="skip",
                                       durability=False)
        recovered.register_function("boom", boom)
        recovered.run()
        # The crashed firing was rolled back wholesale by recovery;
        # finishing the run converges on the fault-free reference (the
        # poison firings dead-letter, everything else fires).
        reference = RuleEngine(
            matcher=MATCHER_FACTORIES[matcher_name](), on_error="skip"
        )
        reference.load(PROGRAM + TestQuarantineConvergence.POISON)
        reference.register_function("boom", boom)
        seed(reference)
        reference.run()
        assert wm_state(recovered) == wm_state(reference)
        assert cs_state(recovered) == cs_state(reference)

    def test_abort_record_is_replayed_not_dropped(self, tmp_path):
        """A *completed* abort bracket survives recovery as history."""

        def boom(*args):
            raise RuntimeError("poison")

        engine = RuleEngine(
            on_error="skip",
            durability=DurabilityConfig(tmp_path, fsync="off"),
        )
        engine.load(PROGRAM + TestQuarantineConvergence.POISON)
        engine.register_function("boom", boom)
        seed(engine)
        engine.run()
        live = (wm_state(engine), cs_state(engine),
                len(engine.dead_letters))
        engine.close()
        recovered = RuleEngine.recover(tmp_path, durability=False)
        assert (wm_state(recovered), cs_state(recovered),
                len(recovered.dead_letters)) == live
        letters = recovered.dead_letters
        assert {letter.rule_name for letter in letters} == {"poison"}
        assert all("poison" in letter.error for letter in letters)


_op = st.one_of(
    st.tuples(st.just("make-item"), st.sampled_from(["a", "b"]),
              st.integers(0, 3)),
    st.tuples(st.just("make-owner"), st.sampled_from(["a", "b"])),
    st.tuples(st.just("run"), st.integers(1, 6)),
)


def _apply(engine, op):
    if op[0] == "make-item":
        engine.make("item", owner=op[1], v=op[2], seen="nil")
    elif op[0] == "make-owner":
        engine.make("owner", name=op[1])
    else:
        engine.run(limit=op[1])


def _apply_retrying(engine, op):
    """Re-apply *op* after halt rollbacks without extra firing budget.

    A faulted ``run`` op must not simply be re-issued whole: firings
    that committed before the fault would then be granted over again,
    letting the faulted engine fire past the reference's limit.  The
    remaining limit shrinks by the firings that *committed* before
    each fault (aborted attempts stay in the trace, flagged).
    """
    if op[0] != "run":
        while True:
            try:
                return _apply(engine, op)
            except FiringError:
                # rolled back; the injector is now spent, so simply
                # continuing re-fires it cleanly.
                continue

    def committed():
        return sum(1 for f in engine.tracer.firings if not f.aborted)

    remaining = op[1]
    while remaining > 0:
        before = committed()
        try:
            return engine.run(limit=remaining)
        except FiringError:
            remaining -= committed() - before


class TestHypothesisFaultAtRandomPoint:
    @settings(max_examples=FAULT_EXAMPLES, deadline=None)
    @given(
        matcher_name=st.sampled_from(sorted(MATCHER_FACTORIES)),
        ops=st.lists(_op, min_size=2, max_size=12),
        target=st.integers(0, 60),
    )
    def test_halt_rollback_then_identical_convergence(self, matcher_name,
                                                      ops, target):
        reference = build(matcher_name)
        for op in ops:
            _apply(reference, op)
        reference.run()
        expected = full_state(reference)

        engine = build(matcher_name)
        with DispatchFault(target):
            for op in ops:
                _apply_retrying(engine, op)
            while True:
                try:
                    engine.run()
                    break
                except FiringError:
                    continue
        assert full_state(engine) == expected
