"""Time at reference core speed.

The box this benchmark was built on slows each virtual CPU by up to
1.7x for seconds to minutes at a time, independently per core and
whatever the guest is doing (``README.md``, "Why times are
normalised").  Raw wall times of one commit then differ more between
runs than any bound the benchmark could set.  So every process that is
measured is pinned to a core, a :mod:`harness.monitor` on the same core
reads the core's speed every INTERVAL_S, and an interval's duration is
reported as what it would have been at the reference speed:
``seconds x (REFERENCE_S / reading) ** SENSITIVITY``, averaged over the
readings taken during the interval.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MONITOR = Path(__file__).with_name("monitor.py")
INTERVAL_S = 0.02

#: The monitor kernel's CPU time on the reference box's cores in their
#: usual state.  A constant, so that normalised times of different runs
#: and commits share one unit.
REFERENCE_S = 80e-6

#: How much more the program's time moves than the monitor kernel's, as
#: a power: over 100 runs of the five workloads, times divided by the
#: plain reading still fell by 10-30 % of every rise in core speed
#: (regression slopes -0.1 .. -0.3 in the logs, median -0.15).
SENSITIVITY = 1.15

#: Readings are smoothed by a rolling median of this many, which drops
#: the one an interrupt landed in.
SMOOTH = 5


def plan_cpus():
    """``{"bench": cpu, "server": cpu}`` from the CPUs this process may
    use: the server gets a core of its own when there are two."""
    allowed = sorted(os.sched_getaffinity(0))
    return {"bench": allowed[0], "server": allowed[-1]}


def pin(pid, cpu):
    os.sched_setaffinity(pid, {cpu})


class CoreClock:
    """Monitors for the cores in use, and the conversion they allow."""

    def __init__(self, cpus):
        self.cpus = cpus
        self._monitors = {}
        self._times = {}
        self._prefix = {}

    def start(self):
        for cpu in set(self.cpus.values()):
            self._monitors[cpu] = subprocess.Popen(
                [sys.executable, str(MONITOR), str(cpu), str(INTERVAL_S)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )

    def stop(self):
        """End the monitors and load their readings."""
        for cpu, process in self._monitors.items():
            output, _ = process.communicate()
            if process.returncode != 0:
                raise RuntimeError(f"core monitor on cpu {cpu} failed")
            self._load(cpu, json.loads(output))
        self._monitors = {}

    def abort(self):
        for process in self._monitors.values():
            process.kill()
            process.communicate()
        self._monitors = {}

    def _load(self, cpu, readings):
        times = [at for at, _cost in readings]
        costs = [cost for _at, cost in readings]
        half = SMOOTH // 2
        prefix = [0.0]
        for i in range(len(costs)):
            window = costs[max(0, i - half):i + half + 1]
            speed = REFERENCE_S / statistics.median(window)
            prefix.append(prefix[-1] + speed ** SENSITIVITY)
        self._times[cpu] = times
        self._prefix[cpu] = prefix

    def factor(self, role, start, end):
        """Reference speed over core speed, averaged over the readings
        taken in ``[start, end]`` (the nearest one when there is none)."""
        cpu = self.cpus[role]
        times, prefix = self._times[cpu], self._prefix[cpu]
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_right(times, end)
        if high <= low:
            before, after = low - 1, low
            if before < 0:
                low = after
            elif after >= len(times):
                low = before
            elif start - times[before] <= times[after] - end:
                low = before
            else:
                low = after
            high = low + 1
        return (prefix[high] - prefix[low]) / (high - low)

    def scaled(self, role, start, end):
        """Seconds ``[start, end]`` would have taken at reference speed."""
        return (end - start) * self.factor(role, start, end)

    def summary(self, role):
        """Median and extreme speed factors seen on *role*'s core."""
        prefix = self._prefix[self.cpus[role]]
        factors = [b - a for a, b in zip(prefix, prefix[1:])]
        return {
            "readings": len(factors),
            "factor_median": statistics.median(factors),
            "factor_min": min(factors),
            "factor_max": max(factors),
        }


class WallClock:
    """The fallback when cores cannot be pinned: raw wall time."""

    cpus = None

    def start(self):
        pass

    def stop(self):
        pass

    abort = stop

    def factor(self, role, start, end):
        return 1.0

    def scaled(self, role, start, end):
        return end - start

    def summary(self, role):
        return {"readings": 0, "factor_median": 1.0, "factor_min": 1.0,
                "factor_max": 1.0}
