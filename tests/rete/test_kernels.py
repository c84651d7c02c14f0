"""The compiled predicates every Rete node matches with.

They are the network's only match path, and DIPS tests its COND
templates with them too, so this grid is the one direct check of them:
every predicate and operand shape, through the kernels and through a
:class:`~repro.dips.cond.CondStore`'s compiled CE test, against the
interpreter's :func:`repro.symbols.apply_predicate` and
:meth:`repro.analysis.CEAnalysis.wme_passes_alpha`.
"""

import pytest

from repro import symbols
from repro.analysis import JoinTest, RuleAnalysis
from repro.dips.cond import CondStore
from repro.lang.parser import parse_rule
from repro.rete import kernels
from repro.wm.wme import NIL, WME, shape_of

VALUES = [0, 1, 2, 2.0, -1, 0.5, True, "a", "b", None]
PREDICATES = ["=", "<>", "<", "<=", ">", ">=", "<=>"]


def unchecked_wme(time_tag, **values):
    """A class-``a`` WME over *values* as they are.

    Working memory only accepts symbols and numbers; the unchecked
    constructor lets the grid feed the predicates bools and None as
    well, to check that they agree with the interpreter on those too.
    """
    return WME.unchecked("a", shape_of(values), (*values.values(), NIL),
                         time_tag)


def ce_analysis(source, index=0):
    return RuleAnalysis(parse_rule(source)).ce_analyses[index]


def cond_test(source):
    """The compiled test a :class:`CondStore` gives the rule's only
    CE, which is over class ``a``."""
    store = CondStore(backend="memory")
    store.add_rule(parse_rule(source))
    (cond_ce,) = store._cond_ces["a"]
    return cond_ce.matches


#: VALUES that a rule's source can spell as an operand.
SOURCE_OPERANDS = [v for v in VALUES if isinstance(v, (int, float, str))
                   and not isinstance(v, bool)]


def assert_alpha_paths_agree(source, probes):
    """Rete's alpha kernel and DIPS's COND test both equal the
    interpreter on every probe."""
    analysis = ce_analysis(source)
    kernel, cond = kernels.alpha(analysis), cond_test(source)
    for values in probes:
        wme = unchecked_wme(1, **values)
        expected = analysis.wme_passes_alpha(wme)
        assert kernel(wme) == expected, (source, values)
        assert cond(wme) == expected, (source, values)


class TestPredicateSemantics:
    def test_alpha_kernel_agrees_with_the_interpreter(self):
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
        assert_alpha_paths_agree(
            "(p r (a ^k << red 2 >> ^n { > 2 <= 9 } ^s blue) --> (halt))",
            probes,
        )

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_constant_and_intra_grid_through_alpha_and_cond(self,
                                                            predicate):
        for operand in SOURCE_OPERANDS:
            assert_alpha_paths_agree(
                f"(p r (a ^x {predicate} {operand}) --> (halt))",
                [{"x": value} for value in VALUES],
            )
        assert_alpha_paths_agree(
            f"(p r (a ^y <v> ^x {predicate} <v>) --> (halt))",
            [{"y": right, "x": left} for left in VALUES for right in VALUES],
        )

    def test_equality_respects_ops_value_categories(self):
        eq = kernels.constant("=", 2)
        assert eq(2) and eq(2.0)
        assert not eq(True)  # bool is not an OPS number
        assert not eq("2")
        ne = kernels.constant("<>", 2)
        assert not ne(2.0) and ne(True) and ne("2")

    def test_order_predicates_guard_domains(self):
        gt = kernels.constant(">", 3)
        assert gt(4) and not gt(3) and not gt("zz") and not gt(True)

    def test_same_type_predicate(self):
        st = kernels.constant("<=>", 3)
        assert st(99) and st(1.5) and not st("x") and not st(True)

    def test_out_of_domain_operand_matches_interpreter(self):
        # '=' against an operand that is neither number nor symbol can
        # never match (values_equal is categorical); '<>' always does.
        assert not kernels.constant("=", None)(1)
        assert kernels.constant("<>", None)("x")

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_constant_predicates_match_apply_predicate(self, predicate):
        for operand in VALUES:
            test = kernels.constant(predicate, operand)
            for value in VALUES:
                expected = symbols.apply_predicate(predicate, value, operand)
                assert test(value) == expected, (predicate, value, operand)

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_join_kernels_match_apply_predicate(self, predicate):
        test = JoinTest("x", predicate, 0, "y")
        kernel = kernels.join((test,))
        for left in VALUES:
            for right in VALUES:
                wme = unchecked_wme(1, x=left)
                expected = symbols.apply_predicate(predicate, left, right)
                assert kernel(wme, lambda lv, at: right) == expected, (
                    predicate, left, right,
                )

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_scan_keeps_order_and_agrees_with_join(self, count):
        tests = (JoinTest("x", ">", 0, "y"), JoinTest("z", "<>", 0, "y"))
        tests = tests[:count]
        wmes = [unchecked_wme(i, x=value, z=value)
                for i, value in enumerate(VALUES + VALUES[::-1])]
        for bound in VALUES:
            lookup = lambda lv, at: bound
            join = kernels.join(tests)
            expected = [w for w in wmes if join(w, lookup)]
            assert kernels.scan(tests)(lookup, dict.fromkeys(wmes)) == (
                expected
            ), bound
