"""Unit tests for the compiled match-kernel layer.

Covers mode resolution (flag / env / default), the structural cache
(sharing, keyspace separation), exact predicate semantics against the
interpreter, and the columnar alpha mirror.
"""

import pytest

from repro import symbols
from repro.analysis import RuleAnalysis
from repro.engine.stats import MatchStats
from repro.errors import ReproError
from repro.lang.parser import parse_rule
from repro.rete import ReteNetwork
from repro.rete.kernels import (
    DEFAULT_MODE,
    KernelPack,
    _const_value_predicate,
    build_kernels,
    resolve_kernels,
)
from repro.wm import WME


class StubWME:
    """WME-shaped stand-in that admits out-of-domain values.

    Working memory only accepts symbols and numbers; the defensive
    paths (bools, None, lists) are exercised by feeding the kernels
    directly, as the alpha/batch tests do.
    """

    def __init__(self, time_tag, **values):
        self.wme_class = "a"
        self.time_tag = time_tag
        self._values = values

    def get(self, attribute):
        return self._values.get(attribute)


def ce_analysis(source, index=0):
    return RuleAnalysis(parse_rule(source)).ce_analyses[index]


def join_tests(source, index=1):
    return RuleAnalysis(parse_rule(source)).ce_analyses[index].join_tests


TWO_CE_RULE = (
    "(p r (emp ^dept <d> ^salary <s>) (dept ^name <d> ^cap > 3) "
    "--> (halt))"
)


class TestModeResolution:
    def test_default_is_closure(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert resolve_kernels(None) == DEFAULT_MODE == "closure"

    def test_env_variable_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "closure")
        assert resolve_kernels(None) == "closure"
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert resolve_kernels(None) == "off"

    def test_explicit_spec_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert resolve_kernels("closure") == "closure"

    def test_boolean_conveniences(self):
        assert resolve_kernels(True) == DEFAULT_MODE
        assert resolve_kernels(False) == "off"

    def test_case_and_whitespace_insensitive(self):
        assert resolve_kernels(" CLOSURE ") == "closure"

    def test_unknown_mode_raises(self):
        with pytest.raises(ReproError, match="unknown kernel mode"):
            resolve_kernels("jit")

    def test_build_kernels_off_returns_none(self):
        assert build_kernels("off") is None
        assert build_kernels("closure") is not None

    def test_pack_rejects_off(self):
        with pytest.raises(ReproError, match="compiled mode"):
            KernelPack("off")


class TestStructuralCache:
    def test_identical_alpha_chains_share_one_kernel(self):
        pack = KernelPack("closure")
        first = pack.alpha(ce_analysis("(p r1 (a ^k 1) --> (halt))"))
        second = pack.alpha(ce_analysis("(p r2 (a ^k 1) --> (halt))"))
        third = pack.alpha(ce_analysis("(p r3 (a ^k 2) --> (halt))"))
        assert first is second
        assert first is not third
        assert pack.compiled == 2
        assert pack.cache_hits == 1

    def test_identical_join_chains_share_one_kernel(self):
        pack = KernelPack("closure")
        first = pack.join(join_tests(TWO_CE_RULE))
        second = pack.join(join_tests(TWO_CE_RULE))
        assert first is second
        assert pack.cache_hits == 1

    def test_alpha_and_join_keyspaces_do_not_collide(self):
        # An alpha chain and a join chain can never alias one cache
        # slot: the key leads with the kind tag.
        pack = KernelPack("closure")
        pack.alpha(ce_analysis("(p r (a) --> (halt))"))
        pack.join(())
        pack.scan(())
        assert pack.compiled == 3
        assert pack.cache_hits == 0

    def test_counters_flow_into_match_stats(self):
        # share_beta off forces the second rule to rebuild its join
        # node; the structural kernel cache still returns the first
        # rule's compiled function as a hit.
        stats = MatchStats()
        network = ReteNetwork(kernels="closure", stats=stats,
                              share_beta=False)
        network.add_rule(parse_rule("(p r1 (a ^k 1) --> (halt))"))
        network.add_rule(parse_rule("(p r2 (a ^k 1) --> (halt))"))
        assert stats.totals["kernels_compiled"] >= 1
        assert stats.totals["kernel_cache_hits"] >= 1

    def test_shared_nodes_share_kernels_across_rules(self):
        network = ReteNetwork(kernels="closure")
        network.add_rule(parse_rule(TWO_CE_RULE))
        before = network.kernels.compiled
        network.add_rule(parse_rule(TWO_CE_RULE.replace("(p r ", "(p r2 ")))
        # The second rule's chains are structurally identical: every
        # lookup is a cache hit (when beta sharing does not skip node
        # construction entirely), no fresh compilation.
        assert network.kernels.compiled == before


class TestPredicateSemantics:
    def test_alpha_kernel_agrees_with_the_interpreter(self):
        analysis = ce_analysis(
            "(p r (a ^k << red 2 >> ^n { > 2 <= 9 } ^s blue) --> (halt))"
        )
        kernel = KernelPack("closure").alpha(analysis)
        probes = [
            {"k": "red", "n": 5, "s": "blue"},
            {"k": 2, "n": 5, "s": "blue"},
            {"k": 2.0, "n": 5, "s": "blue"},
            {"k": True, "n": 5, "s": "blue"},
            {"k": "red", "n": True, "s": "blue"},
            {"k": "red", "n": 2, "s": "blue"},
            {"k": "red", "n": 9, "s": "blue"},
            {"k": "red", "n": 9.5, "s": "blue"},
            {"k": "red", "n": "5", "s": "blue"},
            {"k": "green", "n": 5, "s": "blue"},
            {"k": "red", "n": 5, "s": "red"},
            {"k": None, "n": None, "s": None},
        ]
        for values in probes:
            wme = StubWME(1, **values)
            assert kernel(wme) == analysis.wme_passes_alpha(wme), values

    def test_equality_respects_ops_value_categories(self):
        eq = _const_value_predicate("=", 2)
        assert eq(2) and eq(2.0)
        assert not eq(True)  # bool is not an OPS number
        assert not eq("2")
        ne = _const_value_predicate("<>", 2)
        assert not ne(2.0) and ne(True) and ne("2")

    def test_order_predicates_guard_domains(self):
        gt = _const_value_predicate(">", 3)
        assert gt(4) and not gt(3) and not gt("zz") and not gt(True)

    def test_same_type_predicate(self):
        st = _const_value_predicate("<=>", 3)
        assert st(99) and st(1.5) and not st("x") and not st(True)

    def test_out_of_domain_operand_matches_interpreter(self):
        # '=' against an operand that is neither number nor symbol can
        # never match (values_equal is categorical); '<>' always does.
        assert not _const_value_predicate("=", None)(1)
        assert _const_value_predicate("<>", None)("x")

    @pytest.mark.parametrize(
        "predicate", ["=", "<>", "<", "<=", ">", ">=", "<=>"]
    )
    def test_join_kernels_match_apply_predicate(self, predicate):
        from repro.analysis import JoinTest

        test = JoinTest("x", predicate, 0, "y")
        kernel = KernelPack("closure").join((test,))
        values = [0, 1, 2, 2.0, -1, 0.5, True, "a", "b", None]
        for left in values:
            for right in values:
                wme = StubWME(1, x=left)
                expected = symbols.apply_predicate(predicate, left, right)
                assert kernel(wme, lambda lv, at: right) == expected, (
                    predicate, left, right,
                )


class TestColumnarAlpha:
    def _network(self, kernels="closure"):
        network = ReteNetwork(kernels=kernels)
        network.add_rule(parse_rule(TWO_CE_RULE))
        return network

    def test_memories_are_columnar_exactly_when_kernels_are_on(self):
        for memory in self._network().alpha.memories():
            assert memory.columnar
        for memory in self._network("off").alpha.memories():
            assert not memory.columnar

    def test_scan_view_preserves_insertion_order_across_removals(self):
        network = self._network()
        memory = network.alpha.memories()[0]
        wmes = [
            WME(memory.analysis.ce.wme_class,
                {"dept": f"d{i}", "salary": i, "name": f"d{i}", "cap": 9},
                i)
            for i in range(6)
        ]
        for wme in wmes:
            memory.add(wme)
        memory.remove(wmes[2])
        memory.remove(wmes[4])
        view, columns = memory.scan_view(("dept",))
        assert view == [wmes[0], wmes[1], wmes[3], wmes[5]]
        assert columns["dept"] == [w.get("dept") for w in view]
        # Adds after a rebuild keep the mirror incremental again.
        late = WME(memory.analysis.ce.wme_class, {"dept": "zz"}, 99)
        memory.add(late)
        view, columns = memory.scan_view(("dept",))
        assert view[-1] is late and columns["dept"][-1] == "zz"


class TestUniformSelection:
    def test_engine_kernels_parameter(self):
        from repro.engine.engine import RuleEngine

        assert RuleEngine(kernels="closure").matcher.kernel_mode == "closure"
        assert RuleEngine(kernels="off").matcher.kernel_mode == "off"

    def test_build_matcher_forwards_kernels(self):
        from repro.match import build_matcher

        assert build_matcher("rete", kernels="off").kernel_mode == "off"
        sharded = build_matcher("sharded", kernels="off")
        assert all(shard.kernels is None for shard in sharded.shards)
        assert sharded.kernel_mode == "off"

    def test_cli_kernels_flag(self, capsys):
        from repro.cli import ReplSession

        session = ReplSession(matcher="rete", kernels="off")
        assert session.engine.matcher.kernel_mode == "off"

    def test_env_selects_for_default_networks(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert ReteNetwork().kernels is None
        monkeypatch.setenv("REPRO_KERNELS", "closure")
        assert ReteNetwork().kernel_mode == "closure"
