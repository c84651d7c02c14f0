"""Human-readable dumps of a compiled Rete network.

:func:`describe_network` renders the alpha memories and the beta tree
(joins, negative nodes, S-nodes, P-nodes) with live memory sizes —
handy for seeing the paper's sharing claims directly: a set-oriented
rule and its regular twin share everything up to the terminal.
"""

from __future__ import annotations

from repro.rete.beta import JoinNode
from repro.rete.negative import NegativeNode
from repro.rete.pnode import PNode, SetPNode
from repro.rete.snode import SNode


def describe_network(network):
    """Render *network* as indented text."""
    lines = ["alpha memories:"]
    for memory in network.alpha.memories():
        tests = ", ".join(
            _render_alpha_test(part) for part in memory.key[1:]
        )
        suffix = f" [{tests}]" if tests else ""
        lines.append(
            f"  ({memory.key[0]}){suffix}: {len(memory)} wmes, "
            f"{len(memory.successors)} successor(s)"
        )
    lines.append("beta network:")
    _describe_memory(network.dummy_top, lines, indent=1)
    return "\n".join(lines)


def _render_alpha_test(part):
    kind = part[0]
    if kind == "const":
        _, attribute, predicate, operand = part
        if isinstance(operand, tuple):
            values = " ".join(str(value) for value in operand)
            return f"^{attribute} << {values} >>"
        return f"^{attribute} {predicate} {operand}"
    if kind == "intra":
        _, attribute, predicate, other = part
        return f"^{attribute} {predicate} ^{other}"
    return str(part)


def _describe_memory(memory, lines, indent):
    pad = "  " * indent
    label = "dummy top" if memory.level < 0 else f"memory L{memory.level}"
    lines.append(f"{pad}{label}: {len(memory.items)} token(s)")
    for successor in memory.successors:
        _describe_node(successor, lines, indent + 1)
    for observer in memory.observers:
        _describe_terminal(observer, lines, indent + 1)


def _render_inputs(node, empty):
    tests = ", ".join(
        f"^{t.attribute} {t.predicate} "
        f"ce{t.bound_level + 1}.^{t.bound_attribute}"
        for t in node.tests
    ) or empty
    return f"({node.amem.key[0]}) [{tests}] {node.access_path()}"


def _describe_node(node, lines, indent):
    pad = "  " * indent
    if isinstance(node, JoinNode):
        lines.append(
            f"{pad}join L{node.level} on {_render_inputs(node, 'cross')}"
        )
        _describe_memory(node.output, lines, indent + 1)
    elif isinstance(node, NegativeNode):
        lines.append(
            f"{pad}negative L{node.level} on "
            f"{_render_inputs(node, 'class only')}: "
            f"{len(node.items)} token(s)"
        )
        for successor in node.successors:
            _describe_node(successor, lines, indent + 1)
        for observer in node.observers:
            _describe_terminal(observer, lines, indent + 1)
    else:
        lines.append(f"{pad}{node!r}")


def _render_aggregate(spec):
    """A maintained aggregate as written, and which half of the rule
    reads it from γ-memory: ``avg <staff> ^salary [rhs]``."""
    op, target, attribute = spec.identity
    written = f"{op} <{target}>" + (f" ^{attribute}" if attribute else "")
    return f"{written} [{','.join(spec.readers)}]"


def _describe_terminal(terminal, lines, indent):
    pad = "  " * indent
    if isinstance(terminal, SNode):
        c, p, _, _, test = terminal.static_data()
        pieces = [f"C={list(c)}", f"P={list(p)}"]
        if terminal.memory.agg_specs:
            aggregates = ", ".join(
                map(_render_aggregate, terminal.memory.agg_specs)
            )
            pieces.append(f"aggregates=({aggregates})")
        pieces.append(f"test={'yes' if test is not None else 'no'}")
        lines.append(
            f"{pad}S-node [{terminal.rule.name}] {' '.join(pieces)}: "
            f"{len(terminal.gamma)} SOI(s)"
        )
    elif isinstance(terminal, PNode):
        lines.append(
            f"{pad}P-node [{terminal.rule.name}]: "
            f"{len(terminal)} instantiation(s)"
        )
    elif isinstance(terminal, SetPNode):
        lines.append(
            f"{pad}Set-P-node [{terminal.rule.name}]: {len(terminal)} SOI(s)"
        )
    else:
        lines.append(f"{pad}{terminal!r}")
