"""Core-speed monitor: a subprocess pinned to one CPU that times a
fixed piece of interpreter work every few milliseconds.

Run as ``python monitor.py CPU INTERVAL_S``.  Each reading is the CPU
time (not wall time, so sharing the core with the measured process
does not inflate it) of one pass over KERNEL_PASSES of pointer chasing,
dict updates with tuple keys and attribute stores — the instruction mix
of the engine, which a slowed core slows by about the same factor (an
arithmetic loop is slowed by a different one; ``README.md`` has the
measurements).  Readings are ``(perf_counter, cpu_seconds)`` pairs,
written to stdout as JSON when stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import sys
from time import perf_counter, thread_time

KERNEL_PASSES = 400


class _Node:
    __slots__ = ("key", "values", "next")

    def __init__(self, key):
        self.key = key
        self.values = {}
        self.next = None


def make_ring(size=400):
    nodes = [_Node(i) for i in range(size)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7 + 1) % size]
    return nodes[0]


def kernel(node, passes=KERNEL_PASSES):
    """The timed work; returns the node it stopped at."""
    counts = {}
    for i in range(passes):
        key = (node.key, i & 7)
        counts[key] = counts.get(key, 0) + 1
        node.values[i & 15] = key
        node = node.next
    sorted(counts)
    return node


def main(argv):
    cpu, interval = int(argv[1]), float(argv[2])
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    node = make_ring()
    readings = []
    stdin = sys.stdin.fileno()
    while True:
        node = kernel(node)             # untimed: refill the caches
        at = perf_counter()
        began = thread_time()
        node = kernel(node)
        readings.append((at, thread_time() - began))
        ready, _, _ = select.select([stdin], [], [], interval)
        if ready:
            break
    json.dump(readings, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
