"""Unit tests for the alpha network."""

from repro.analysis import RuleAnalysis
from repro.engine.stats import MatchStats
from repro.lang.parser import parse_rule
from repro.rete.alpha import AlphaNetwork
from repro.wm import WME


def ce_analysis(source, index=0):
    return RuleAnalysis(parse_rule(source)).ce_analyses[index]


class _Recorder:
    """A successor that hears only right activations: removal has no
    successor hook (the network's token cascade does that work)."""

    def __init__(self):
        self.added = []

    def right_activate(self, wme):
        self.added.append(wme)


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

    def test_successors_hear_adds_not_removes(self):
        network = AlphaNetwork()
        memory = network.memory_for(
            ce_analysis("(p r (a) --> (halt))")
        )
        recorder = _Recorder()
        memory.successors.append(recorder)
        wme = WME("a", {}, 1)
        network.add_wme(wme)
        network.remove_batch([wme])
        assert recorder.added == [wme]
        assert wme not in memory

    def test_remove_unknown_wme_is_noop(self):
        network = AlphaNetwork()
        memory = network.memory_for(ce_analysis("(p r (a) --> (halt))"))
        kept = WME("a", {}, 2)
        network.add_wme(kept)
        network.remove_batch([WME("zzz", {}, 1), WME("a", {}, 3)])
        assert list(memory) == [kept]

    def test_remove_batch_is_one_activation_per_memory(self):
        stats = MatchStats()
        network = AlphaNetwork(stats=stats)
        a_all = network.memory_for(ce_analysis("(p r (a ^k <v>) --> (halt))"))
        a_one = network.memory_for(ce_analysis("(p r2 (a ^k 1) --> (halt))"))
        b_all = network.memory_for(ce_analysis("(p r3 (b) --> (halt))"))
        a_all.ensure_index("k")
        a_all.ensure_range("k")
        made = [WME("a", {"k": k}, tag) for tag, k in enumerate((1, 2, 1), 1)]
        made.append(WME("b", {}, 4))
        network.add_batch(made)
        before = stats.totals["alpha_activations"]
        network.remove_batch([made[0], made[3], made[1]])
        # a_all, a_one and b_all each drop their share as one group.
        assert stats.totals["alpha_activations"] - before == 3
        assert list(a_all) == [made[2]]
        assert list(a_one) == [made[2]]
        assert len(b_all) == 0
        assert a_all.indexed_wmes("k", 1) == [made[2]]
        assert a_all.indexed_wmes("k", 2) == []
        assert a_all.ranges["k"].select(">", 0) == [made[2]]


class TestOrderedIndex:
    def _memory(self, *values):
        memory = AlphaNetwork().memory_for(
            ce_analysis("(p r (c ^k <v>) --> (halt))")
        )
        index = memory.ensure_range("k")
        made = [WME("c", {"k": value}, tag)
                for tag, value in enumerate(values, 1)]
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
        _, index, made = self._memory("sym", "nil", nan, float("inf"), 0)
        assert index.keys == [0, float("inf")]
        assert index.select(">=", float("-inf")) == [made[3], made[4]]
        for probe in ("sym", "nil", nan, True, [1]):
            assert index.select("<", probe) == []

    def test_removal_prunes_keys_and_buckets(self):
        memory, index, made = self._memory(2, 2.0, 7, "x")
        memory.remove_batch(made)
        assert (index.keys, index.buckets) == ([], {})

    def test_backfills_existing_members_once(self):
        memory = AlphaNetwork().memory_for(
            ce_analysis("(p r (c ^k <v>) --> (halt))")
        )
        made = [WME("c", {"k": 4}, 1), WME("c", {"k": 1}, 2)]
        for wme in made:
            memory.add(wme)
        index = memory.ensure_range("k")
        assert memory.ensure_range("k") is index
        assert index.select(">", 0) == made
