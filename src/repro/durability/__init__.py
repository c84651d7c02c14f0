"""Durability: write-ahead logging, checkpoints, and crash recovery.

The paper's section 8 motivates merging rule systems with database
systems precisely to gain "concurrency control and persistence as
found in database systems".  This package supplies the persistence
half for the whole engine, tying the working-memory snapshot store
(:mod:`repro.wm.snapshot`) to the batched delta streams of
:meth:`repro.wm.memory.WorkingMemory.batch` — matcher state, DIPS
COND tables included, is derived and rebuilt by replay:

* :mod:`repro.durability.wal` — a segmented, CRC32-framed
  **write-ahead log** of every working-memory delta-set and firing
  (each firing a bracketed transaction recovery can roll back if a
  crash cut it short), with a configurable fsync policy
  (``always`` / ``batch`` / ``off``);
* :mod:`repro.durability.checkpoint` — atomic **checkpoints**
  (write-temp-then-rename) bundling the WM snapshot, the time-tag
  counter, the program text, refraction state, and the WAL position,
  after which obsolete segments are truncated;
* :mod:`repro.durability.recovery` — **recovery**: load the latest
  checkpoint, then replay the WAL tail *through the batched
  propagation path*, so any matcher (Rete, naive, DIPS)
  rebuilds identical match state; a torn/truncated final record is
  tolerated (the unflushed tail is lost), a corrupt middle raises a
  typed :class:`~repro.errors.RecoveryError`;
* :mod:`repro.durability.faultfs` — a **fault-injection harness**
  simulating torn writes, truncated tails, bit-flipped records, and
  crashes at parameterized points.

Wire it through the engine::

    from repro import DurabilityConfig, RuleEngine

    engine = RuleEngine(durability=DurabilityConfig("run.wal.d"))
    engine.load(program)
    engine.load_facts(facts)          # one WAL record per batch
    engine.checkpoint()               # atomic snapshot + WAL truncation
    ...                               # crash here --
    engine = RuleEngine.recover("run.wal.d")   # -- and resume

See ``docs/DURABILITY.md`` for the on-disk format specification.
"""

from repro.durability.checkpoint import load_checkpoint, write_checkpoint
from repro.durability.faultfs import (
    FaultInjector,
    SimulatedCrash,
    corrupt_record,
    tear_tail,
    truncate_tail,
)
from repro.durability.manager import DurabilityConfig, DurabilityManager
from repro.durability.recovery import recover_engine
from repro.durability.wal import WriteAheadLog, read_log_tail

__all__ = [
    "DurabilityConfig",
    "DurabilityManager",
    "FaultInjector",
    "SimulatedCrash",
    "WriteAheadLog",
    "corrupt_record",
    "load_checkpoint",
    "read_log_tail",
    "recover_engine",
    "tear_tail",
    "truncate_tail",
    "write_checkpoint",
]
