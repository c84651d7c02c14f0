"""Unit tests for the network dump (and the sharing story it shows)."""

from repro.lang.parser import parse_rule
from repro.match.base import NullListener
from repro.rete import ReteNetwork
from repro.rete.explain import describe_network
from repro.wm import WorkingMemory


def build(*sources):
    wm = WorkingMemory()
    net = ReteNetwork()
    net.set_listener(NullListener())
    net.attach(wm)
    for source in sources:
        net.add_rule(parse_rule(source))
    return wm, net


class TestDescribeNetwork:
    def test_alpha_section_lists_tests(self):
        wm, net = build("(p r (a ^k 1 ^x <v> ^y <v>) --> (halt))")
        text = describe_network(net)
        assert "^k = 1" in text
        assert "^y = ^x" in text

    def test_shared_chain_shown_once(self):
        wm, net = build(
            "(p regular (a ^x <v>) (b ^y <v>) --> (halt))",
            "(p set-twin (a ^x <v>) { [b ^y <v>] <S> } "
            ":test ((count <S>) >= 1) --> (halt))",
        )
        wm.make("a", x=1)
        wm.make("b", y=1)
        text = describe_network(net)
        # One shared join chain, two terminals under the same memory.
        assert text.count("join L1") == 1
        assert "P-node [regular]" in text
        assert "S-node [set-twin]" in text
        assert "C=[0]" in text

    def test_negative_nodes_rendered(self):
        wm, net = build("(p r (goal) -(done) --> (halt))")
        wm.make("goal")
        text = describe_network(net)
        assert "negative L1 on (done) [class only] scan: 1 token(s)" in text

    def test_access_path_shown_per_node(self):
        wm, net = build(
            "(p r (a ^k <v> ^m <w>) -(b ^k <v>) (c ^k <v> ^j > <w>)"
            " (d ^j > <w>) (e ^j <> <w>) --> (halt))"
        )
        text = describe_network(net)
        assert "negative L1 on (b) [^k = ce1.^k] probe ^k:" in text
        assert "join L2 on (c) [^k = ce1.^k, ^j > ce1.^m] probe ^k\n" in text
        assert "join L3 on (d) [^j > ce1.^m] range ^j >\n" in text
        assert "join L4 on (e) [^j <> ce1.^m] scan\n" in text

    def test_snode_line_lists_maintained_aggregates_and_readers(self):
        # The shape of the served WINDOW program's roll-up: one aggregate
        # read by both halves of the rule, one by the RHS alone, and one
        # inside a foreach, which ranges over a narrowed group and so is
        # not maintained.
        wm, net = build(
            "(p rollup (dept ^name <d>) { [emp ^dept <d> ^grade <g>] <staff> }"
            " :test ((count <staff>) >= 1) -->"
            " (write rollup <d> (count <staff>) (avg <staff> ^salary))"
            " (foreach <g> (write <g> (max <staff> ^salary))))"
        )
        text = describe_network(net)
        assert (
            "S-node [rollup] C=[0] P=[] aggregates=(count <staff> "
            "[test,rhs], avg <staff> ^salary [rhs]) test=yes: 0 SOI(s)"
        ) in text

    def test_disjunction_rendered(self):
        wm, net = build("(p r (a ^c << red green >>) --> (halt))")
        text = describe_network(net)
        assert "<< red green >>" in text

    def test_counts_are_live(self):
        wm, net = build("(p r (a) --> (halt))")
        for _ in range(3):
            wm.make("a")
        text = describe_network(net)
        assert "3 wmes" in text
        assert "3 instantiation(s)" in text


class TestCliNetworkCommand:
    def test_network_via_repl(self):
        from repro.cli import ReplSession

        session = ReplSession(watch=0)
        session.execute("(p r (a) --> (write x))")
        output = session.execute("network")
        assert "alpha memories" in output
        assert "P-node [r]" in output

    def test_network_requires_rete(self):
        from repro.cli import ReplSession

        session = ReplSession(matcher="naive", watch=0)
        assert "only available" in session.execute("network")
