"""Unit tests for the alpha network."""

from repro.analysis import RuleAnalysis
from repro.lang.parser import parse_rule
from repro.rete.alpha import AlphaNetwork
from repro.wm import WME


def ce_analysis(source, index=0):
    return RuleAnalysis(parse_rule(source)).ce_analyses[index]


class _Recorder:
    def __init__(self):
        self.added = []
        self.removed = []

    def right_activate(self, wme):
        self.added.append(wme)

    def right_retract(self, wme):
        self.removed.append(wme)


class TestAlphaSharing:
    def test_identical_tests_share_one_memory(self):
        network = AlphaNetwork()
        first = network.memory_for(
            ce_analysis("(p r1 (a ^k 1 ^x <v>) --> (halt))")
        )
        second = network.memory_for(
            ce_analysis("(p r2 (a ^k 2 ^y <w>) --> (halt))")
        )
        third = network.memory_for(
            ce_analysis("(p r3 (a ^k 1 ^x <q>) --> (halt))")
        )
        assert first is third
        assert first is not second
        assert network.memory_count == 2

    def test_free_variables_do_not_restrict_alpha(self):
        # A variable-only attribute adds no single-WME test, so CEs that
        # differ only in free variables share one memory.
        network = AlphaNetwork()
        first = network.memory_for(
            ce_analysis("(p r1 (a ^k 1 ^x <v>) --> (halt))")
        )
        second = network.memory_for(
            ce_analysis("(p r2 (a ^k 1 ^y <w>) --> (halt))")
        )
        assert first is second

    def test_set_and_regular_ces_share(self):
        """Paper §5: sharing holds between set and non-set rules."""
        network = AlphaNetwork()
        regular = network.memory_for(
            ce_analysis("(p r1 (a ^k 1) --> (halt))")
        )
        set_oriented = network.memory_for(
            ce_analysis("(p r2 [a ^k 1] --> (halt))")
        )
        assert regular is set_oriented


class TestRouting:
    def test_wme_routed_by_class_and_tests(self):
        network = AlphaNetwork()
        memory = network.memory_for(
            ce_analysis("(p r (a ^k 1) --> (halt))")
        )
        other = network.memory_for(
            ce_analysis("(p r2 (b) --> (halt))")
        )
        match = WME("a", {"k": 1}, 1)
        miss = WME("a", {"k": 2}, 2)
        network.add_wme(match)
        network.add_wme(miss)
        network.add_wme(WME("b", {}, 3))
        assert match in memory
        assert miss not in memory
        assert len(other) == 1

    def test_successors_notified(self):
        network = AlphaNetwork()
        memory = network.memory_for(
            ce_analysis("(p r (a) --> (halt))")
        )
        recorder = _Recorder()
        memory.successors.append(recorder)
        wme = WME("a", {}, 1)
        network.add_wme(wme)
        network.remove_wme(wme)
        assert recorder.added == [wme]
        assert recorder.removed == [wme]

    def test_remove_unknown_wme_is_noop(self):
        network = AlphaNetwork()
        network.memory_for(ce_analysis("(p r (a) --> (halt))"))
        network.remove_wme(WME("zzz", {}, 1))  # no error


class _OddWME:
    """A WME-shaped object carrying values outside the OPS5 domain.

    Working memory itself only admits symbols and numbers, so the
    unhashable-value handling in the index helpers is pure defence —
    exercised here directly since no public path can reach it.
    """

    def __init__(self, tag, **values):
        self.wme_class = "c"
        self.time_tag = tag
        self._values = values

    def get(self, attribute):
        return self._values.get(attribute, "nil")


class TestUnhashableIndexValues:
    def _memory(self):
        memory = AlphaNetwork().memory_for(
            ce_analysis("(p r (c ^k <v>) --> (halt))")
        )
        memory.ensure_index("k")
        return memory

    def test_unhashable_value_lands_in_sentinel_bucket(self):
        memory = self._memory()
        odd = _OddWME(1, k=[1, 2])
        plain = _OddWME(2, k=5)
        memory.add(odd)
        memory.add(plain)
        # Every probe also returns the sentinel bucket: the join's full
        # test list post-filters, so results never change.
        assert set(memory.indexed_wmes("k", 5)) == {plain, odd}
        assert memory.indexed_wmes("k", 99) == [odd]

    def test_unhashable_probe_value_raises_for_scan_fallback(self):
        memory = self._memory()
        memory.add(_OddWME(1, k=5))
        try:
            memory.indexed_wmes("k", [5])
        except TypeError:
            pass
        else:
            raise AssertionError("expected TypeError for scan fallback")

    def test_removal_prunes_sentinel_bucket(self):
        memory = self._memory()
        odd = _OddWME(1, k={"a": 1})
        memory.add(odd)
        memory.remove(odd)
        assert memory.indexed_wmes("k", 42) == []
        assert not memory.indexes["k"]


class TestOrderedIndex:
    def _memory(self, *values):
        memory = AlphaNetwork().memory_for(
            ce_analysis("(p r (c ^k <v>) --> (halt))")
        )
        index = memory.ensure_range("k")
        made = [_OddWME(tag, k=value) for tag, value in enumerate(values)]
        for wme in made:
            memory.add(wme)
        return memory, index, made

    def test_slices_come_back_in_arrival_order(self):
        _, index, (w3, w1, w2, w1f, w5) = self._memory(3, 1, 2, 1.0, 5)
        assert index.select("<", 3) == [w1, w2, w1f]
        assert index.select("<=", 3) == [w3, w1, w2, w1f]
        assert index.select(">", 1) == [w3, w2, w5]
        assert index.select(">=", 2) == [w3, w2, w5]
        assert index.select(">", 5) == []
        # 1 and 1.0 share one bucket, in arrival order.
        assert index.select("<", 2) == [w1, w1f]

    def test_only_orderable_numbers_are_filed_or_probed(self):
        nan = float("nan")
        _, index, made = self._memory(
            "sym", "nil", nan, True, float("inf"), 0
        )
        assert index.keys == [0, float("inf")]
        assert index.select(">=", float("-inf")) == [made[4], made[5]]
        for probe in ("sym", "nil", nan, True, [1]):
            assert index.select("<", probe) == []

    def test_removal_prunes_keys_and_buckets(self):
        memory, index, made = self._memory(2, 2.0, 7, "x")
        for wme in made:
            memory.remove(wme)
        assert (index.keys, index.buckets) == ([], {})

    def test_backfills_existing_members_once(self):
        memory = AlphaNetwork().memory_for(
            ce_analysis("(p r (c ^k <v>) --> (halt))")
        )
        made = [_OddWME(1, k=4), _OddWME(2, k=1)]
        for wme in made:
            memory.add(wme)
        index = memory.ensure_range("k")
        assert memory.ensure_range("k") is index
        assert index.select(">", 0) == made
