"""Parallel execution: the §8.1 cycle, plus the §1 cost model.

"A parallel architecture could perform an operation on the members of a
set in parallel.  Furthermore, research has shown that a limiting
factor for parallelization of the Rete network is the number of
operations done per rule firing [Gupta 1984, Miranker 1986, Pasik
1989].  The number of actions in a set-oriented rule should be
substantially greater, providing the ability to increase parallelism."

Two layers live here:

* **The cost model** — :func:`firing_latency` / :func:`run_latency` /
  :func:`speedup` turn a firing trace into schedule lengths on
  ``workers`` parallel units.  Costs follow the real executor: a make
  is one independent unit, a remove is one unit chained on its element,
  and a modify is remove+insert of the same element — a two-unit chain
  link (``UNIT_COST``).  Actions touching one logical element form a
  chain keyed by the element's *chain root* tag (a modify re-tags, so
  a firing record maps replacement tags back when it is read — see
  :attr:`~repro.engine.tracing.FiringRecord.touched_ops`).
  :func:`measured_schedule` is an event-driven greedy scheduler over
  the same chains; the property suite checks the closed form against
  it on traced runs.

* **The cycle** — :func:`execute_cycle` implements
  ``RuleEngine.parallel_cycle``, the DIPS §8.1 model of firing every
  satisfied instantiation at once, simulated sequentially.  The
  cycle's eligible instantiations are snapshotted, then fired one by
  one in conflict-resolution order through the ordinary atomic-firing
  transaction.  Before each firing the member is validated: still in
  the conflict set, SOI version unmoved, eligible.  A member an
  earlier firing of the same cycle invalidated is counted as a
  conflict, not fired — the paper's §8.1 count of tuple
  instantiations that invalidate each other.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

#: Schedule cost of one RHS WM action, in time units.  A modify is
#: remove+insert on the same element: two units on one chain.
UNIT_COST = {"make": 1, "remove": 1, "modify": 2}

#: One parallel cycle's accounting: every snapshot member is exactly
#: one of fired / conflicted (invalidated by an earlier firing of the
#: same cycle) / abandoned (given up by its error policy).
CycleResult = namedtuple("CycleResult", "fired conflicted abandoned")

#: ``RuleEngine.run_parallel`` totals.
ParallelRunResult = namedtuple(
    "ParallelRunResult", "cycles fired conflicted abandoned"
)


# -- the cost model ----------------------------------------------------------


def firing_chains(record):
    """The firing's dependency chains, as a list of unit lengths.

    Each make is its own 1-unit chain; removes and modifies accumulate
    onto the chain of their element's root tag.
    """
    independent = []
    per_root = {}
    for kind, root in record.touched_ops:
        units = UNIT_COST[kind]
        if root is None:
            independent.append(units)
        else:
            per_root[root] = per_root.get(root, 0) + units
    independent.extend(per_root.values())
    return independent


def firing_latency(record, workers):
    """Schedule length of one firing's WM actions on *workers* units.

    The latency is bounded below by the longest same-element chain and
    by ``ceil(total units / workers)``; for unit-task chains the bound
    is achieved by the greedy longest-remaining-chain-first schedule
    (:func:`measured_schedule` — the property suite holds the two
    equal), so it is returned exactly.
    """
    chains = firing_chains(record)
    total = sum(chains)
    if total == 0:
        return 0
    if workers <= 1:
        return total
    return max(max(chains), math.ceil(total / workers))


def measured_schedule(record, workers):
    """Event-driven greedy schedule length of one firing's actions.

    Simulates *workers* units executing the firing's chains one unit
    per step, always serving the chains with the most remaining work —
    the executable counterpart of :func:`firing_latency`'s closed form.
    """
    return simulate_chains(firing_chains(record), workers)


def simulate_chains(chains, workers):
    """Greedy longest-remaining-first schedule of unit-task *chains*."""
    remaining = [-units for units in chains if units > 0]
    if not remaining:
        return 0
    if workers <= 1:
        return -sum(remaining)
    heapq.heapify(remaining)
    steps = 0
    while remaining:
        served = [heapq.heappop(remaining)
                  for _ in range(min(workers, len(remaining)))]
        steps += 1
        for negative in served:
            if negative + 1 < 0:
                heapq.heappush(remaining, negative + 1)
    return steps


def run_latency(tracer, workers):
    """Total schedule length of a traced run on *workers* units."""
    return sum(
        firing_latency(record, workers) for record in tracer.firings
    )


def speedup(tracer, workers):
    """Sequential latency / parallel latency for the traced run."""
    sequential = run_latency(tracer, 1)
    parallel = run_latency(tracer, workers)
    if parallel == 0:
        return 1.0
    return sequential / parallel


def speedup_table(tracer, worker_counts=(1, 2, 4, 8, 16, 32)):
    """(workers, latency, speedup) rows for a traced run."""
    rows = []
    for workers in worker_counts:
        latency = run_latency(tracer, workers)
        rows.append((workers, latency, speedup(tracer, workers)))
    return rows


# -- the parallel cycle ------------------------------------------------------


def execute_cycle(engine):
    """One DIPS-style parallel cycle; returns :class:`CycleResult`.

    Snapshots the eligible conflict set, then fires its members in
    conflict-resolution order.  Each member lands in exactly one
    bucket — fired, conflicted (invalidated by an earlier firing of
    this cycle), or abandoned (its error policy gave up on it) — and
    the accounting is asserted against the snapshot size unless a
    ``halt`` stopped the cycle midway.
    """
    if engine.halted:
        return CycleResult(0, 0, 0)
    snapshot = [
        (inst, inst.soi.version if inst.is_set_oriented else None)
        for inst in engine.conflict_set.eligible_snapshot(engine.strategy)
    ]
    fired = 0
    conflicted = 0
    abandoned = 0
    halted_mid_cycle = False
    for instantiation, version in snapshot:
        still_present = (
            engine.conflict_set.current(instantiation.identity())
            is instantiation
        )
        unchanged = (
            version is None
            or instantiation.soi.version == version
        )
        if not (still_present and unchanged
                and instantiation.eligible()):
            # Invalidated by an earlier firing of this cycle: the
            # mutual-invalidation case the paper criticises
            # tuple-oriented rules for.
            conflicted += 1
            continue
        if engine.fire(instantiation) is not None:
            fired += 1
        else:
            # Abandoned by its error policy — not a firing, and not a
            # paper-sense conflict either; its consumed refraction
            # stamp keeps it out of the next cycle's snapshot.
            abandoned += 1
        if engine.halted:
            halted_mid_cycle = True
            break
    if not halted_mid_cycle:
        assert fired + conflicted + abandoned == len(snapshot), (
            f"parallel cycle accounting drifted: {fired} fired + "
            f"{conflicted} conflicted + {abandoned} abandoned != "
            f"{len(snapshot)} snapshotted"
        )
    return CycleResult(fired, conflicted, abandoned)
