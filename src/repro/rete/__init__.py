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
  :class:`~repro.rete.pnode.SetPNode`.

The paper's key structural claim — "leaving the network untouched,
except at the end of the network for each set-oriented rule" — is
honoured: S-nodes are attached after the last join, and all alpha/beta
sharing applies uniformly to set-oriented and regular rules.

Node test lists are compiled to specialized match kernels at build
time by :mod:`repro.rete.kernels` (``closure``, or ``off`` for the
interpreted walk the tests use as oracle; selected via ``kernels=`` /
``REPRO_KERNELS``).  See ``docs/KERNELS.md``.
"""

from repro.rete.network import ReteNetwork
from repro.rete.sharded import ShardedReteNetwork
from repro.rete.snode import SNode, SetOrientedInstance
from repro.rete.aggregates import AggregateSpec, AggregateState
from repro.rete.kernels import (
    KERNEL_MODES,
    KernelPack,
    build_kernels,
    resolve_kernels,
)

__all__ = [
    "AggregateSpec",
    "AggregateState",
    "KERNEL_MODES",
    "KernelPack",
    "ReteNetwork",
    "ShardedReteNetwork",
    "SNode",
    "SetOrientedInstance",
    "build_kernels",
    "resolve_kernels",
]
