"""repro — Set-Oriented Constructs: From Rete Rule Bases to Database Systems.

A complete, from-scratch reproduction of Gordin & Pasik (SIGMOD 1991):
an OPS5/C5 forward-chaining rule engine whose Rete network is extended
with the paper's set-oriented constructs — set-oriented condition
elements and pattern variables, incremental LHS aggregates, the S-node
(Figure 3), and the RHS ``foreach``/``set-modify``/``set-remove``
operators — plus the relational/DIPS integration of section 8.

Quick start::

    from repro import RuleEngine

    engine = RuleEngine()
    engine.load('''
        (literalize player name team)
        (p SwitchTeams
          { [player ^team A] <ATeam> }
          { [player ^team B] <BTeam> }
          :test ((count <ATeam>) == (count <BTeam>))
          -->
          (set-modify <ATeam> ^team B)
          (set-modify <BTeam> ^team A))
    ''')
    engine.make("player", name="Jack", team="A")
    engine.make("player", name="Sue", team="B")
    engine.run(limit=1)

Subsystems: :mod:`repro.lang` (the rule language), :mod:`repro.rete`
(the extended match network), :mod:`repro.match` (the
naive oracle), :mod:`repro.engine` (conflict resolution + RHS),
:mod:`repro.rdb` (the relational substrate), :mod:`repro.dips` (DBMS
matching, section 8), :mod:`repro.bench` (workloads and harness).
"""

from repro.durability import DurabilityConfig
from repro.engine import MatchStats, NullStats, RuleEngine
from repro.lang import RuleBuilder, parse_program, parse_rule
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork
from repro.wm import WME, WorkingMemory

__version__ = "1.0.0"

__all__ = [
    "DurabilityConfig",
    "MatchStats",
    "NaiveMatcher",
    "NullStats",
    "ReteNetwork",
    "RuleBuilder",
    "RuleEngine",
    "WME",
    "WorkingMemory",
    "__version__",
    "parse_program",
    "parse_rule",
]
