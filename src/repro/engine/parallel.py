"""Parallel execution: the firing pool, plus the §1 cost model.

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
  the tracer maps replacement tags back — see
  :meth:`~repro.engine.tracing.FiringRecord.touch`).
  :func:`measured_schedule` is an event-driven greedy scheduler over
  the same chains; the property suite checks the closed form against
  it on traced runs.

* **The firing pool** — :func:`execute_cycle` implements
  ``RuleEngine.parallel_cycle`` (the DIPS §8.1 model, actually
  concurrent).  The cycle's eligible instantiations are snapshotted,
  every member's RHS is *speculated* concurrently on a thread pool
  against a sandbox (no working-memory mutation, no WAL traffic), and
  the recorded action plans are then committed **serially in
  conflict-resolution order** through the ordinary atomic-firing
  transaction.  Commit order — and with it time tags, WAL record
  order, tracer contents, and conflict accounting — is therefore
  bit-identical to the sequential simulation; the pool only moves the
  RHS evaluation (expression work, set iteration, aggregate folds)
  off the commit path.  A plan invalidated by an earlier commit of the
  same cycle (validation below) falls back to live execution, which is
  what the sequential path would have run anyway.

Speculation safety: the RHS reads working memory only through
liveness checks on its own targets and mutates it only through
make/remove/modify — everything else (expressions, foreach) reads the
instantiation's token snapshot, and aggregates the SOI's γ-memory, which
only a commit moves and whose every move bumps the SOI version checked
below.  The sandbox records the
evaluated action list plus the set of base time tags the firing
depends on; a plan is replayed only when (a) the instantiation
survived commit-time validation (still present, SOI version unchanged,
eligible) and (b) no earlier commit of the cycle consumed a tag the
plan depends on.  ``(call ...)`` actions run arbitrary host code and
are never speculated (:class:`_Unspeculable`); such firings execute
live at commit, exactly as the sequential path does.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from repro.engine.tracing import FiringRecord
from repro.engine.rhs import RhsExecutor
from repro.errors import EngineError, WorkingMemoryError
from repro.wm.wme import WME

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


# -- speculation -------------------------------------------------------------


class _Unspeculable(BaseException):
    """The RHS reached an action the sandbox cannot evaluate safely
    (``call`` into arbitrary host code).  Derives from BaseException so
    no handler inside the executor can swallow it; the speculation is
    simply discarded and the firing runs live at commit."""


class FiringPlan:
    """The recorded effects of one successfully speculated RHS.

    *actions* is the evaluated WM/trace action list (make values,
    remove/modify target tags, write text, bind/halt markers) in
    execution order.  *depends* is the set of live (base) time tags the
    firing read or wrote: the plan is valid only while none of them has
    been consumed by an earlier commit of the same cycle.
    """

    __slots__ = ("rule_name", "actions", "depends")

    def __init__(self, rule_name, actions, depends):
        self.rule_name = rule_name
        self.actions = actions
        self.depends = depends

    def __repr__(self):
        return (
            f"FiringPlan({self.rule_name}, {len(self.actions)} actions, "
            f"{len(self.depends)} deps)"
        )


class _CallBlocker:
    """Stands in for ``engine.functions`` during speculation."""

    __slots__ = ()

    def get(self, name):
        raise _Unspeculable(name)


class _SandboxTracer:
    """Records ``write`` output as plan actions instead of emitting."""

    __slots__ = ("actions",)

    def __init__(self, actions):
        self.actions = actions

    def write(self, text):
        self.actions.append(("write", text))


class _SandboxWM:
    """A write-free overlay over the real working memory.

    Mutations record plan actions; liveness (``in``) consults the real
    memory through an overlay of in-sandbox removals and provisional
    creations.  Provisional elements get negative time tags; the
    replayer maps them to real tags by allocation order.
    """

    __slots__ = ("base", "actions", "depends", "_removed", "_made",
                 "_provisional")

    def __init__(self, base, actions):
        self.base = base
        self.actions = actions
        self.depends = set()
        self._removed = set()
        self._made = {}
        self._provisional = 0

    def _create(self, wme_class, values):
        self._provisional -= 1
        wme = WME(wme_class, values, self._provisional)
        self._made[self._provisional] = wme
        return wme

    def __contains__(self, wme):
        if not isinstance(wme, WME):
            return False
        tag = wme.time_tag
        if tag < 0:
            return self._made.get(tag) is wme and tag not in self._removed
        self.depends.add(tag)
        return tag not in self._removed and wme in self.base

    def make(self, wme_class, **values):
        self.base.registry.validate(wme_class, values)
        wme = self._create(wme_class, values)
        self.actions.append(("make", wme_class, values))
        return wme

    def _consume(self, wme):
        tag = wme.time_tag
        if wme not in self:
            raise WorkingMemoryError(
                f"WME {wme!r} is not in working memory"
            )
        self._removed.add(tag)
        return tag

    def remove(self, wme):
        tag = self._consume(wme)
        self.actions.append(("remove", tag))
        return wme

    def modify(self, wme, **updates):
        new_values = wme.with_updates(updates)
        self.base.registry.validate(wme.wme_class, new_values)
        tag = self._consume(wme)
        self.actions.append(("modify", tag, dict(updates)))
        return self._create(wme.wme_class, new_values)


class _SandboxEngine:
    """The slice of the engine surface the RHS executor touches."""

    __slots__ = ("wm", "tracer", "functions", "actions")

    def __init__(self, engine):
        self.actions = []
        self.wm = _SandboxWM(engine.wm, self.actions)
        self.tracer = _SandboxTracer(self.actions)
        self.functions = _CallBlocker()

    def halt(self):
        self.actions.append(("halt",))


def speculate(engine, instantiation):
    """Dry-run *instantiation*'s RHS; return a FiringPlan or None.

    Runs on a pool thread against a read-only view of the engine: no
    working-memory mutation, no tracer/WAL traffic, no stats.  Returns
    None when the RHS is unspeculable (``call``) or raised — either
    way the commit loop falls back to live execution, which reproduces
    the outcome (including the error, under the rule's policy).
    """
    analysis = engine.analyses.get(instantiation.rule.name)
    if analysis is None:
        return None
    sandbox = _SandboxEngine(engine)
    record = FiringRecord(
        0,
        instantiation.rule.name,
        instantiation.is_set_oriented,
        instantiation.recency_key(),
        len(instantiation.tokens()),
    )
    executor = RhsExecutor(
        sandbox, instantiation.rule, analysis, instantiation, record
    )
    try:
        executor.run()
    except _Unspeculable:
        return None
    except Exception:
        return None
    return FiringPlan(
        instantiation.rule.name, sandbox.actions, sandbox.wm.depends
    )


class PlanReplayer:
    """Executor-protocol replay of a :class:`FiringPlan`.

    Substituted for :class:`~repro.engine.rhs.RhsExecutor` inside the
    atomic-firing transaction: applies the recorded actions to the real
    working memory in order, maintaining the firing record's counters
    and chain bookkeeping exactly as live execution would.  Provisional
    (negative) tags recorded by the sandbox resolve to the real WMEs by
    allocation order.
    """

    __slots__ = ("engine", "plan", "record", "action_path", "_made",
                 "_provisional")

    def __init__(self, engine, plan, record):
        self.engine = engine
        self.plan = plan
        self.record = record
        self.action_path = ()
        self._made = {}
        self._provisional = 0

    def _resolve(self, tag):
        if tag < 0:
            return self._made[tag]
        wme = self.engine.wm.get(tag)
        if wme is None:
            raise EngineError(
                f"stale firing plan for {self.plan.rule_name}: element "
                f"{tag} left working memory before commit"
            )
        return wme

    def _track(self, wme):
        self._provisional -= 1
        self._made[self._provisional] = wme
        return wme

    def run(self):
        engine = self.engine
        record = self.record
        for index, action in enumerate(self.plan.actions):
            self.action_path = (index,)
            kind = action[0]
            if kind == "make":
                self._track(engine.wm.make(action[1], **action[2]))
                record.makes += 1
                record.touch("make")
            elif kind == "remove":
                wme = self._resolve(action[1])
                engine.wm.remove(wme)
                record.removes += 1
                record.touch("remove", wme.time_tag)
            elif kind == "modify":
                wme = self._resolve(action[1])
                replacement = engine.wm.modify(wme, **action[2])
                self._track(replacement)
                record.modifies += 1
                record.touch(
                    "modify", wme.time_tag, replacement.time_tag
                )
            elif kind == "write":
                engine.tracer.write(action[1])
                record.writes += 1
            elif kind == "bind":
                record.binds += 1
            elif kind == "halt":
                engine.halt()
            else:  # pragma: no cover - plans only record the above
                raise EngineError(f"unknown plan action {action!r}")
        self.action_path = ()


# -- the parallel cycle ------------------------------------------------------


def execute_cycle(engine, workers=1):
    """One DIPS-style parallel cycle; returns :class:`CycleResult`.

    Snapshots the eligible conflict set, speculates every member's RHS
    on the firing pool when ``workers > 1`` (a barrier: all
    speculations finish before the first commit), then commits in
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
    plans = {}
    if workers is not None and workers > 1 and len(snapshot) > 1:
        pool = engine._firing_pool(workers)
        futures = [
            (inst, pool.submit(speculate, engine, inst))
            for inst, _ in snapshot
        ]
        for inst, future in futures:
            plans[id(inst)] = future.result()
        engine.stats.incr("pool_speculations", len(futures))
    fired = 0
    conflicted = 0
    abandoned = 0
    consumed = set()
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
        plan = plans.get(id(instantiation))
        if plan is not None and not (plan.depends & consumed):
            engine.stats.incr("pool_plan_commits")
            record = engine.fire(instantiation, plan=plan)
        else:
            if plans:
                engine.stats.incr("pool_plan_fallbacks")
            record = engine.fire(instantiation)
        if record is not None:
            fired += 1
            for _, root in record.touched_ops:
                if root is not None:
                    consumed.add(root)
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
