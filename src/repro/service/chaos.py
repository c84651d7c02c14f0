"""Chaos layer for the rule service: injected wire and lifecycle faults.

The resilience story of ``docs/SERVICE.md`` is only as good as the
faults it has actually survived, so this module makes fault injection a
first-class, *deterministic* part of the service: a seeded
:class:`ChaosInjector` rolls per-event dice against the rates in a
:class:`ChaosConfig` and

* **wire faults** — tears the connection down mid-stream, delays a
  response write (slow-loris in reverse), or writes only a prefix of
  one, cut inside a line, before dropping the socket.  The server
  consults :meth:`ChaosInjector.wire_fault` once per outbound write
  (a response's lines leave in groups);
* **lifecycle faults** — kills a session outright between admission
  and execution (:meth:`should_kill_session`), and arms per-session
  :class:`~repro.durability.faultfs.FaultInjector` instances
  (:meth:`fault_for_session`) that crash an eviction checkpoint
  mid-write or fail a WAL append with ``ENOSPC`` — the existing
  durability fault points, driven from the service layer.

Everything is counted (``counters``) so soak reports can show the
faults that were actually injected, and everything derives from one
seed so a chaos run is reproducible.  The differential chaos suite
(``tests/service/test_differential_chaos.py``) drives a client
workload through these faults and asserts the final state is identical
to a fault-free run — the exactly-once contract.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

from repro.errors import ServiceError

#: Rate-valued fields a spec string may set (probability per event).
_RATE_FIELDS = ("disconnect", "delay", "partial", "kill", "wal_error",
                "evict_crash")


class ChaosConfig:
    """Fault rates and knobs for one :class:`ChaosInjector`.

    Rates are probabilities in ``[0, 1]`` rolled once per opportunity:

    *disconnect* — tear the connection down instead of sending a line;
    *delay* — sleep up to *delay_s* seconds before sending a line;
    *partial* — send a prefix of the line, then tear down;
    *kill* — kill the target session between admission and execution;
    *wal_error* — arm a one-shot ``ENOSPC`` on a new session's WAL;
    *evict_crash* — arm a one-shot crash inside a new session's first
    checkpoint attempt (the eviction path swallows it, leaving a
    ``.tmp`` checkpoint for recovery to ignore; after a deferred
    self-checkpoint the server drops the dead session, to be resumed);
    *delay_s* — the maximum injected delay;
    *seed* — the deterministic RNG seed.
    """

    __slots__ = ("disconnect", "delay", "partial", "kill", "wal_error",
                 "evict_crash", "delay_s", "seed")

    def __init__(self, disconnect=0.0, delay=0.0, partial=0.0,
                 kill=0.0, wal_error=0.0, evict_crash=0.0,
                 delay_s=0.05, seed=0):
        for name, value in (("disconnect", disconnect), ("delay", delay),
                            ("partial", partial), ("kill", kill),
                            ("wal_error", wal_error),
                            ("evict_crash", evict_crash)):
            value = float(value)
            if not 0.0 <= value <= 1.0:
                raise ServiceError(
                    f"chaos rate {name} must be in [0, 1], got {value}"
                )
            object.__setattr__(self, name, value)
        self.delay_s = float(delay_s)
        self.seed = int(seed)

    @property
    def enabled(self):
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @classmethod
    def parse(cls, spec):
        """Build a config from ``"disconnect=0.1,delay=0.05,seed=7"``.

        Keys are the constructor's field names; ``kill`` is the
        session-kill rate.  Unknown keys and malformed values raise
        :class:`~repro.errors.ServiceError` (a ``bad_request`` at the
        CLI), so a typo'd chaos spec fails loudly instead of silently
        running fault-free.
        """
        if isinstance(spec, cls):
            return spec
        fields = {}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            name, eq, value = part.partition("=")
            name = name.strip()
            if not eq or name not in cls.__slots__:
                raise ServiceError(
                    f"bad chaos spec entry {part!r}: expected "
                    f"name=value with name in "
                    f"{', '.join(cls.__slots__)}"
                )
            try:
                fields[name] = (
                    int(value) if name == "seed" else float(value)
                )
            except ValueError as error:
                raise ServiceError(
                    f"bad chaos spec value {part!r}: {error}"
                ) from None
        return cls(**fields)

    def describe(self):
        """JSON-safe view for the stats/health surfaces."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        active = ",".join(
            f"{name}={getattr(self, name)}"
            for name in _RATE_FIELDS if getattr(self, name) > 0.0
        )
        return f"ChaosConfig({active or 'inactive'}, seed={self.seed})"


class ChaosInjector:
    """Rolls the dice: one seeded RNG, thread-safe, fully counted."""

    def __init__(self, config):
        self.config = (
            config if isinstance(config, ChaosConfig)
            else ChaosConfig.parse(config)
        )
        self._rng = random.Random(self.config.seed)
        self._lock = threading.Lock()
        self.counters = Counter()

    def _roll(self, rate):
        if rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < rate

    # -- wire faults -------------------------------------------------------

    def wire_fault(self):
        """``None`` or one of ``disconnect``/``partial``/``delay`` for
        the next outbound write (at most one fault per write)."""
        config = self.config
        if self._roll(config.disconnect):
            self.counters["disconnects"] += 1
            return "disconnect"
        if self._roll(config.partial):
            self.counters["partial_writes"] += 1
            return "partial"
        if self._roll(config.delay):
            self.counters["delays"] += 1
            return "delay"
        return None

    def delay_seconds(self):
        """A jittered sleep for one ``delay`` fault."""
        with self._lock:
            return self.config.delay_s * (0.5 + self._rng.random() / 2)

    def partial_prefix(self, size):
        """How many bytes of a *size*-byte write a torn one keeps."""
        with self._lock:
            return max(0, min(size - 1, int(size * self._rng.random())))

    # -- lifecycle faults --------------------------------------------------

    def should_kill_session(self):
        """Kill the session this request targets (before execution)?"""
        if self._roll(self.config.kill):
            self.counters["sessions_killed"] += 1
            return True
        return False

    def fault_for_session(self, session_id):
        """A durability :class:`FaultInjector` for a new session, or None.

        Rolled once per session creation: ``evict_crash`` arms a
        simulated crash inside the session's first checkpoint attempt
        (after members are written, before the rename — the window
        that leaves a ``.tmp`` directory behind); ``wal_error`` arms a
        one-shot ``ENOSPC`` on a later WAL append.  Both are one-shot,
        modelling transient infrastructure faults the session must
        survive or be recovered from.
        """
        from repro.durability.faultfs import FaultInjector

        crash_at = {}
        error_at = {}
        if self._roll(self.config.evict_crash):
            crash_at["checkpoint.files"] = 1
            self.counters["evict_crashes_armed"] += 1
        if self._roll(self.config.wal_error):
            with self._lock:
                error_at["wal.append.before"] = self._rng.randint(2, 12)
            self.counters["wal_errors_armed"] += 1
        if not crash_at and not error_at:
            return None
        return FaultInjector(crash_at=crash_at, error_at=error_at)

    def stats(self):
        """JSON-safe injected-fault counters plus the active config."""
        return {"config": self.config.describe(),
                "injected": dict(self.counters)}
