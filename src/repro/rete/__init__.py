"""An extended Rete network (Forgy 1982 + Gordin & Pasik 1991 S-nodes).

Structure follows the classic dataflow design:

* the **alpha network** (:mod:`repro.rete.alpha`) runs each WME through
  shared constant/intra-element tests into alpha memories;
* the **beta network** (:mod:`repro.rete.beta`) joins partial matches
  (tokens) left-to-right through join nodes and beta memories, with
  negated CEs handled by :mod:`repro.rete.negative`;
* **terminal nodes**: a :class:`~repro.rete.pnode.PNode` per regular
  rule, and for set-oriented rules an :class:`~repro.rete.snode.SNode`
  implementing the paper's Figure 3 algorithm feeding a
  :class:`~repro.rete.pnode.SetPNode` — built by
  :func:`~repro.rete.pnode.build_terminal`, which every other matcher
  calls too.

The paper's key structural claim — "leaving the network untouched,
except at the end of the network for each set-oriented rule" — is
honoured: S-nodes are attached after the last join, and all alpha/beta
sharing applies uniformly to set-oriented and regular rules.

Every node compiles its test list into one Python function when it is
built (:mod:`repro.rete.kernels`); that is the only way the network
tests a WME.
"""

from repro.rete.network import ReteNetwork
from repro.rete.snode import SNode, SetOrientedInstance
from repro.rete.aggregates import AggregateSpec, AggregateState

__all__ = [
    "AggregateSpec",
    "AggregateState",
    "ReteNetwork",
    "SNode",
    "SetOrientedInstance",
]
