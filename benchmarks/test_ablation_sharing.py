"""Ablation — Rete node sharing (the §5 advantage the S-node preserves).

"All of the advantages of Rete such as shared tests remain, even
between set-oriented and non-set-oriented rules."  This ablation
compiles a family of rules with a common join prefix, with alpha/beta
sharing enabled and disabled, and reports memory counts, token work,
and wall time.
"""

import time

from benchmarks.conftest import build_stats_network

from repro.bench import print_table
from repro.lang.parser import parse_rule
from repro.rete import ReteNetwork
from repro.wm import WorkingMemory

RULE_FAMILY_SIZE = 8


def rule_family():
    """Rules sharing CE1+CE2; each adds a distinct third CE."""
    rules = []
    for index in range(RULE_FAMILY_SIZE):
        rules.append(parse_rule(
            f"(p fam-{index} "
            f"(a ^x <v>) (b ^y <v>) (c ^z <v> ^k {index}) "
            f"--> (write {index}))"
        ))
    # Include a set-oriented sibling sharing the same prefix (§5).
    rules.append(parse_rule(
        "(p fam-set (a ^x <v>) { [b ^y <v>] <S> } "
        ":test ((count <S>) >= 1) --> (write s))"
    ))
    return rules


def run_configuration(share_alpha, share_beta, size=12):
    wm, net, stats = build_stats_network(
        *rule_family(), share_alpha=share_alpha, share_beta=share_beta
    )
    start = time.perf_counter()
    wmes = []
    for index in range(size):
        wmes.append(wm.make("a", x=index))
        wmes.append(wm.make("b", y=index))
        wmes.append(wm.make("c", z=index, k=index % RULE_FAMILY_SIZE))
    for wme in wmes:
        wm.remove(wme)
    elapsed = time.perf_counter() - start
    return net, elapsed, stats


def test_sharing_ablation(benchmark):
    rows = []
    results = {}
    for label, share_alpha, share_beta in (
        ("full sharing", True, True),
        ("no beta sharing", True, False),
        ("no sharing at all", False, False),
    ):
        net, elapsed, stats = run_configuration(share_alpha, share_beta)
        results[label] = (net, stats)
        rows.append(
            (
                label,
                net.alpha.memory_count,
                stats.totals["tokens_created"],
                stats.totals["join_tests_attempted"],
                f"{elapsed:.4f}",
            )
        )
    print_table(
        "Ablation — Rete sharing on a 9-rule family with a common "
        "prefix",
        ["configuration", "alpha memories", "tokens created",
         "join tests", "time (s)"],
        rows,
    )
    shared_net, shared_stats = results["full sharing"]
    unshared_net, unshared_stats = results["no sharing at all"]
    # Sharing collapses the alpha memories and the prefix join work —
    # visible directly in the match-work counters, not only in timings.
    assert shared_net.alpha.memory_count < unshared_net.alpha.memory_count
    assert (
        shared_stats.totals["tokens_created"]
        < unshared_stats.totals["tokens_created"]
    )
    assert (
        shared_stats.totals["join_tests_attempted"]
        < unshared_stats.totals["join_tests_attempted"]
    )

    benchmark(run_configuration, True, True)


def test_unshared_network_still_correct(benchmark):
    """The ablation changes cost, never results."""

    def conflict_sizes(share_alpha, share_beta):
        wm = WorkingMemory()
        from repro.engine.conflict import ConflictSet

        listener = ConflictSet()
        net = ReteNetwork(share_alpha=share_alpha, share_beta=share_beta)
        net.set_listener(listener)
        net.attach(wm)
        for rule in rule_family():
            net.add_rule(rule)
        for index in range(6):
            wm.make("a", x=index)
            wm.make("b", y=index)
            wm.make("c", z=index, k=index % RULE_FAMILY_SIZE)
        return sorted(
            (inst.rule.name, inst.recency_key())
            for inst in listener.instantiations()
        )

    assert conflict_sizes(True, True) == conflict_sizes(False, False)

    benchmark(run_configuration, False, False)
