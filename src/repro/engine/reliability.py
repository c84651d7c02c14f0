"""Transactional firings and fault containment.

Three layers, bottom up:

* **Atomic firings** — :func:`fire` wraps every RHS in a working-memory
  transaction (:meth:`~repro.wm.memory.WorkingMemory.begin_transaction`):
  effects stage in the batch buffer, so no matcher — Rete, naive,
  or DIPS — ever propagates a delta the firing did not commit.
  On any contained exception the transaction rewinds the WME multiset,
  the time-tag counter, the tracer output, the ``halted`` flag, and
  (under ``halt``) the refraction stamp, leaving the engine exactly as
  if the firing had never been attempted.  The write-ahead log gets a
  matching ``abort`` record so durable history agrees with memory and
  :meth:`RuleEngine.recover` replays the same outcome.

* **Error policies** — per-engine and per-rule ``on_error`` handling of
  a failed firing: :class:`HaltPolicy` (re-raise a
  :class:`~repro.errors.FiringError`, the default and the pre-existing
  behaviour), :class:`SkipPolicy` (abandon the instantiation and record
  it as a dead letter), :class:`RetryPolicy` (re-run the RHS up to *n*
  times with exponential backoff, then fall back), and
  :class:`QuarantinePolicy` (skip, and after *k* failures of the same
  rule detach the whole rule from conflict resolution).  The
  :class:`ReliabilityManager` keeps the dead-letter list and the
  quarantine registry, both inspectable from the CLI/REPL.

* **Run watchdogs** — :func:`run_guarded` and
  :func:`run_parallel_guarded` back ``RuleEngine.run`` /
  ``run_parallel``: wall-clock and firing budgets, plus a livelock
  detector that flags the same instantiation *content* identity firing
  more than N times while working memory keeps returning to the same
  content fingerprint — the refire loop no budget would catch before
  burning it.  Watchdogs degrade gracefully (stop and report via
  ``engine.last_run_report``) unless asked to raise.

Containment never catches a
:class:`~repro.durability.faultfs.SimulatedCrash`: an injected crash
means the process is dead, and recovery — not a policy — is the only
way forward.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from time import monotonic, perf_counter

from repro.engine.parallel import ParallelRunResult
from repro.engine.rhs import RhsExecutor
from repro.errors import (
    EngineError,
    FiringError,
    LivelockError,
    WalError,
)
from repro.wm.memory import pause_collector, resume_collector


def _is_contained(exc):
    """Is *exc* a fault a policy may handle (vs. one that must escape)?"""
    from repro.durability.faultfs import SimulatedCrash

    return isinstance(exc, Exception) and not isinstance(exc, SimulatedCrash)


def _summarize(exc):
    return f"{type(exc).__name__}: {exc}"


def content_identity(instantiation):
    """Identity by WME *contents* (class + values), not time tags.

    ``modify`` always re-tags, so tag-based identity can never observe
    "the same instantiation firing again"; content identity can.  Used
    by the livelock detector and stable across matchers.
    """
    levels = range(len(instantiation.rule.ces))
    items = []
    for token in instantiation.tokens():
        for level in levels:
            wme = token.wme_at(level)
            if wme is not None:
                items.append(
                    (wme.wme_class, tuple(sorted(wme.as_dict().items())))
                )
    items.sort(key=repr)
    return (instantiation.rule.name, tuple(items))


# -- error policies ----------------------------------------------------------


class HaltPolicy:
    """Roll back, restore the refraction stamp, re-raise (the default)."""

    name = "halt"

    def decide(self, error, attempt, rule_failures):
        return ("halt", 0.0)

    def __repr__(self):
        return "halt"


class SkipPolicy:
    """Roll back, dead-letter the instantiation, carry on."""

    name = "skip"

    def decide(self, error, attempt, rule_failures):
        return ("skip", 0.0)

    def __repr__(self):
        return "skip"


class RetryPolicy:
    """Re-attempt the firing up to *attempts* times, then fall back.

    *backoff* seconds are slept before retry ``i`` scaled by
    ``2**(i-1)`` (exponential).  *then* is the policy applied once the
    retry budget is spent (default: :class:`SkipPolicy`).
    """

    name = "retry"

    def __init__(self, attempts=3, backoff=0.0, then=None):
        if attempts < 1:
            raise EngineError("retry policy needs attempts >= 1")
        self.attempts = attempts
        self.backoff = backoff
        self.then = then if then is not None else SkipPolicy()

    def decide(self, error, attempt, rule_failures):
        if attempt <= self.attempts:
            return ("retry", self.backoff * (2 ** (attempt - 1)))
        return self.then.decide(error, attempt, rule_failures)

    def __repr__(self):
        return f"retry({self.attempts}, backoff={self.backoff}, {self.then})"


class QuarantinePolicy:
    """Skip failures; after *after* failures detach the whole rule.

    The failure count is cumulative per rule across the run (not per
    instantiation), so a rule that keeps producing poison
    instantiations is eventually taken out of conflict resolution
    entirely — its instantiations park outside the conflict set until
    :meth:`RuleEngine.release_rule`.
    """

    name = "quarantine"

    def __init__(self, after=3):
        if after < 1:
            raise EngineError("quarantine policy needs after >= 1")
        self.after = after

    def decide(self, error, attempt, rule_failures):
        if rule_failures >= self.after:
            return ("quarantine", 0.0)
        return ("skip", 0.0)

    def __repr__(self):
        return f"quarantine(after={self.after})"


def policy_named(spec):
    """Parse an ``on_error`` spec: object, or string form.

    Strings: ``halt``, ``skip``, ``retry``, ``retry:N``,
    ``retry:N:BACKOFF``, ``retry:N:BACKOFF:THEN``, ``quarantine``,
    ``quarantine:K``.
    """
    if not isinstance(spec, str):
        if hasattr(spec, "decide"):
            return spec
        raise EngineError(f"not an error policy: {spec!r}")
    head, _, rest = spec.partition(":")
    # The THEN tail of a retry spec is itself a policy spec, so it may
    # contain colons of its own — split off at most the two scalars.
    parts = rest.split(":", 2) if rest else []
    try:
        if head == "halt" and not parts:
            return HaltPolicy()
        if head == "skip" and not parts:
            return SkipPolicy()
        if head == "retry":
            attempts = int(parts[0]) if len(parts) > 0 else 3
            backoff = float(parts[1]) if len(parts) > 1 else 0.0
            then = policy_named(parts[2]) if len(parts) > 2 else None
            return RetryPolicy(attempts, backoff, then)
        if head == "quarantine" and len(parts) <= 1:
            after = int(parts[0]) if parts else 3
            return QuarantinePolicy(after)
    except ValueError as error:
        raise EngineError(
            f"malformed error policy {spec!r}: {error}"
        ) from None
    raise EngineError(
        f"unknown error policy {spec!r}; expected halt, skip, "
        f"retry[:n[:backoff[:then]]], or quarantine[:after]"
    )


# -- dead letters and the quarantine registry --------------------------------


class DeadLetter:
    """One poison instantiation the engine gave up on."""

    __slots__ = ("rule_name", "cycle", "attempts", "action_path",
                 "error", "signature", "outcome")

    def __init__(self, rule_name, cycle, attempts, action_path, error,
                 signature, outcome):
        self.rule_name = rule_name
        self.cycle = cycle
        self.attempts = attempts
        self.action_path = tuple(action_path)
        self.error = error
        self.signature = signature
        self.outcome = outcome

    def __repr__(self):
        path = ".".join(str(i) for i in self.action_path) or "-"
        return (
            f"DeadLetter({self.rule_name} @cycle {self.cycle}, "
            f"action {path}, {self.attempts} attempt(s), "
            f"{self.outcome}: {self.error})"
        )


class ReliabilityManager:
    """Per-engine policies, failure counts, dead letters, quarantine."""

    def __init__(self, default_policy=None):
        self.default_policy = (
            policy_named(default_policy)
            if default_policy is not None else HaltPolicy()
        )
        self.rule_policies = {}
        self.failure_counts = {}
        self.dead_letters = []
        self.quarantined = {}

    def set_policy(self, policy, rule_name=None):
        policy = policy_named(policy)
        if rule_name is None:
            self.default_policy = policy
        else:
            self.rule_policies[rule_name] = policy
        return policy

    def policy_for(self, rule_name):
        return self.rule_policies.get(rule_name, self.default_policy)

    def record_failure(self, rule_name):
        count = self.failure_counts.get(rule_name, 0) + 1
        self.failure_counts[rule_name] = count
        return count

    def add_dead_letter(self, letter):
        self.dead_letters.append(letter)
        return letter

    def quarantine(self, engine, rule_name, reason):
        """Park *rule_name* out of conflict resolution."""
        parked = engine.conflict_set.quarantine_rule(rule_name)
        self.quarantined[rule_name] = {
            "cycle": engine.cycle_count,
            "failures": self.failure_counts.get(rule_name, 0),
            "reason": reason,
            "parked": parked,
        }
        engine.stats.incr("rules_quarantined")
        return parked

    def release(self, engine, rule_name):
        """Re-admit a quarantined rule's instantiations."""
        self.quarantined.pop(rule_name, None)
        self.failure_counts.pop(rule_name, None)
        return engine.conflict_set.release_rule(rule_name)

    def clear_runtime_state(self, engine):
        """Forget failures/dead letters and release every quarantine
        (the ``reset()`` semantics: fresh scenario, same rule base)."""
        for rule_name in list(self.quarantined):
            engine.conflict_set.release_rule(rule_name)
        self.quarantined.clear()
        self.failure_counts.clear()
        self.dead_letters.clear()


# -- the transactional firing ------------------------------------------------


class _FiringTransaction:
    """Pre-fire snapshot + staged effects for one firing attempt."""

    __slots__ = ("engine", "instantiation", "record", "savepoint",
                 "refraction", "halted", "output_mark", "fault")

    def __init__(self, engine, instantiation, record):
        self.engine = engine
        self.instantiation = instantiation
        self.record = record
        durability = engine.durability
        self.fault = (
            durability.config.fault if durability is not None else None
        )

    def begin(self):
        """Snapshot pre-fire state, stage effects, open the WAL bracket."""
        engine = self.engine
        self.refraction = self.instantiation.refraction_state()
        self.halted = engine.halted
        self.output_mark = len(engine.tracer.output)
        self.savepoint = engine.wm.begin_transaction()
        self.instantiation.mark_fired()
        if engine.durability is not None:
            try:
                engine.durability.log_fire(self.instantiation)
            except BaseException:
                # The bracket never opened: nothing durable happened, so
                # undo the in-memory half and let the failure escape raw
                # (an unusable log is infrastructure, not a rule fault).
                self.restore_refraction()
                engine.wm.rollback_transaction(self.savepoint, engine.stats)
                raise

    def commit(self):
        """Flush staged effects (WAL first), then close the bracket."""
        engine = self.engine
        try:
            engine.wm.commit_transaction(self.savepoint, engine.stats)
        except (WalError, OSError):
            if not engine.wm.in_batch:
                raise  # an observer already consumed the flush
            # The write-ahead append refused before any observer saw the
            # flush and the batch was reopened: unwind it and let the
            # caller decide (FiringError with stage="commit").
            engine.wm.rollback_transaction(self.savepoint, engine.stats)
            raise
        if engine.durability is not None:
            try:
                engine.durability.log_fire_end()
            except (WalError, OSError) as error:
                # The effects are durable but the terminator is not;
                # recovery will roll the firing back.  Surface it
                # instead of discarding: counter + trace note.
                engine.stats.incr("wal_append_errors")
                self.record.note = (
                    f"fire-end append failed: {_summarize(error)}"
                )

    def roll_back(self):
        """Rewind memory, output, and the halt flag to the snapshot."""
        engine = self.engine
        if self.fault is not None:
            self.fault.hit("fire.rollback")
        engine.wm.rollback_transaction(self.savepoint, engine.stats)
        engine.halted = self.halted
        output = engine.tracer.output
        while len(output) > self.output_mark:
            output.pop()
        if self.fault is not None:
            self.fault.hit("fire.abort")

    def unwind_raw(self):
        """Rollback for an *uncontained* exception escaping the RHS.

        Same in-memory rewind as :meth:`roll_back` — the staged batch
        must not leak into later operations — but with no fault-point
        hits (a simulated crash must not cascade) and no WAL record:
        the bracket stays open in the log, so recovery rolls the
        firing back wholesale, agreeing with memory.
        """
        engine = self.engine
        engine.wm.rollback_transaction(self.savepoint, engine.stats)
        engine.halted = self.halted
        output = engine.tracer.output
        while len(output) > self.output_mark:
            output.pop()
        self.restore_refraction()

    def restore_refraction(self):
        self.engine.conflict_set.restore_refraction(
            self.instantiation, self.refraction
        )

    def log_abort(self, outcome, error):
        """Close the WAL bracket as rolled back, recording the outcome.

        Recovery replays the record: ``halt`` restores the refraction
        stamp, every other outcome leaves it consumed — exactly what
        the live engine did.  A failed append is surfaced, not fatal:
        the bracket then stays open in the log and recovery rolls the
        firing back wholesale, which agrees with memory anyway.
        """
        engine = self.engine
        if engine.durability is None:
            return
        try:
            engine.durability.log_abort(self.instantiation, outcome, error)
        except (WalError, OSError) as log_error:
            engine.stats.incr("wal_append_errors")
            self.record.note = (
                f"abort append failed: {_summarize(log_error)}"
            )


def fire(engine, instantiation):
    """Fire *instantiation* atomically under the rule's error policy.

    Returns the :class:`~repro.engine.tracing.FiringRecord` of the
    committed firing, or ``None`` when the policy abandoned it
    (skip/quarantine).  Raises :class:`~repro.errors.FiringError`
    under ``halt`` — after full rollback.

    The cyclic collector is paused over a set-sized firing
    (:func:`~repro.wm.memory.pause_collector`): a set action's members,
    the rest of its RHS and the flush are one unit, which no collection
    splits.
    """
    if not instantiation.is_set_oriented:
        return _fire(engine, instantiation)
    was = pause_collector(len(instantiation.soi))
    try:
        return _fire(engine, instantiation)
    finally:
        resume_collector(was)


def _fire(engine, instantiation):
    reliability = engine.reliability
    rule_name = instantiation.rule.name
    policy = reliability.policy_for(rule_name)
    attempt = 0
    while True:
        attempt += 1
        engine.cycle_count += 1
        record = engine.tracer.begin_firing(engine.cycle_count,
                                            instantiation)
        analysis = engine.analyses.get(rule_name)
        if analysis is None:
            raise EngineError(f"rule {rule_name} is not registered")
        txn = _FiringTransaction(engine, instantiation, record)
        txn.begin()
        executor = RhsExecutor(
            engine, instantiation.rule, analysis, instantiation, record
        )
        error = None
        try:
            if engine.stats.enabled:
                started = perf_counter()
                executor.run()
                engine.stats.cycle(rule_name, perf_counter() - started)
            else:
                executor.run()
        except BaseException as exc:
            if not _is_contained(exc):
                # Simulated crash / interrupt: no policy applies, but
                # the staged batch must not leak into later operations.
                txn.unwind_raw()
                raise
            txn.roll_back()
            error = FiringError(
                f"rule {rule_name} failed at action "
                f"{'.'.join(map(str, executor.action_path)) or '?'}: "
                f"{_summarize(exc)}",
                rule_name=rule_name, cycle=record.cycle, attempt=attempt,
                action_path=executor.action_path, stage="rhs",
            )
            error.__cause__ = exc
        else:
            try:
                txn.commit()
            except (WalError, OSError) as exc:
                if engine.wm.in_batch:
                    raise  # commit could not unwind; don't double-handle
                engine.halted = txn.halted
                output = engine.tracer.output
                while len(output) > txn.output_mark:
                    output.pop()
                error = FiringError(
                    f"rule {rule_name} failed publishing its effects: "
                    f"{_summarize(exc)}",
                    rule_name=rule_name, cycle=record.cycle,
                    attempt=attempt, action_path=(), stage="commit",
                )
                error.__cause__ = exc
            else:
                return record

        # -- containment: the attempt failed and is fully rolled back --
        failures = reliability.record_failure(rule_name)
        outcome, delay = policy.decide(error, attempt, failures)
        record.outcome = outcome
        record.error = _summarize(error.__cause__)
        engine.stats.incr("firing_aborts")
        if outcome == "halt":
            txn.restore_refraction()
            txn.log_abort("halt", error)
            raise error
        if outcome == "retry":
            txn.log_abort("retry", error)
            if delay:
                time.sleep(delay)
            continue
        # skip / quarantine: the stamp stays consumed so the poison
        # instantiation is not re-selected forever.
        txn.log_abort(outcome, error)
        reliability.add_dead_letter(DeadLetter(
            rule_name, record.cycle, attempt, error.action_path,
            _summarize(error.__cause__),
            _fired_signature(instantiation), outcome,
        ))
        engine.stats.incr("dead_letters")
        if outcome == "quarantine":
            reliability.quarantine(engine, rule_name,
                                   _summarize(error.__cause__))
            if engine.durability is not None:
                engine.durability.log_quarantine(rule_name)
        return None


def _fired_signature(instantiation):
    from repro.durability.manager import fired_signature

    return fired_signature(instantiation)


# -- run watchdogs -----------------------------------------------------------


class LivelockDetector:
    """Counts recurrences of (instantiation content, WM fingerprint).

    A quiescing run can revisit a content state, but the same rule
    firing on the same content and leaving working memory at the same
    content fingerprint more than *threshold* times is a refire cycle
    going nowhere — tag-level state always advances, content-level
    state is what spins.
    """

    __slots__ = ("threshold", "_counts")

    def __init__(self, threshold):
        if threshold < 1:
            raise EngineError("livelock threshold must be >= 1")
        self.threshold = threshold
        self._counts = {}

    def observe(self, identity, fingerprint):
        """Record one firing; True when it crossed the threshold."""
        key = (identity, fingerprint)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        return count > self.threshold


class RunReport:
    """Why a guarded run stopped; ``engine.last_run_report``."""

    __slots__ = ("fired", "cycles", "conflicted", "abandoned", "reason",
                 "elapsed", "livelock_rule")

    def __init__(self, fired, reason, elapsed, cycles=None,
                 conflicted=None, abandoned=None, livelock_rule=None):
        self.fired = fired
        self.reason = reason
        self.elapsed = elapsed
        self.cycles = cycles
        self.conflicted = conflicted
        self.abandoned = abandoned
        self.livelock_rule = livelock_rule

    def __repr__(self):
        extra = ""
        if self.livelock_rule is not None:
            extra = f", livelocked on {self.livelock_rule}"
        return (
            f"RunReport({self.fired} fired, {self.reason} "
            f"after {self.elapsed:.3f}s{extra})"
        )


def _make_detector(engine, livelock_threshold, on_livelock):
    if on_livelock not in ("stop", "raise"):
        raise EngineError(
            f"on_livelock must be 'stop' or 'raise', got {on_livelock!r}"
        )
    if livelock_threshold is None:
        return None
    engine.wm.enable_fingerprint()
    return LivelockDetector(livelock_threshold)


def _livelock(on_livelock, rule_name, count):
    if on_livelock == "raise":
        raise LivelockError(
            f"livelock: rule {rule_name} fired more than {count} times "
            f"with no net working-memory change"
        )


def _out_of_time(started, wall_clock, deadline):
    """``"deadline"`` or ``"wall_clock"`` once that budget is spent."""
    if deadline is not None and monotonic() >= deadline:
        return "deadline"
    if wall_clock is not None and perf_counter() - started >= wall_clock:
        return "wall_clock"
    return None


def commit_scope(engine):
    """The group-commit scope of *engine*'s log (nothing when it has
    none): the frames of one run, or one served request, share a sync."""
    durability = engine.durability
    return nullcontext() if durability is None else durability.commit_scope()


def _checkpoint_if_due(engine):
    """After a run's commit scope has closed (its frames synced): the
    log's self-checkpoint, if one is due.  A failure raises to the
    run's caller; the run's firings are already durable."""
    if engine.durability is not None:
        engine.durability.checkpoint_if_due(engine)


def run_guarded(engine, limit=None, *, wall_clock=None, deadline=None,
                livelock_threshold=None, on_livelock="stop"):
    """``RuleEngine.run`` with budgets and the livelock watchdog.

    *deadline* is an absolute :func:`time.monotonic` instant (the
    service layer propagates a client's per-request deadline here);
    crossing it stops the run with reason ``"deadline"`` — distinct
    from ``"wall_clock"`` so callers can tell a client-imposed cutoff
    from the server-side cap.
    """
    detector = _make_detector(engine, livelock_threshold, on_livelock)
    started = perf_counter()
    fired = 0
    reason = "quiescent"
    culprit = None
    with commit_scope(engine):
        while True:
            if limit is not None and fired >= limit:
                reason = "limit"
                break
            timed_out = _out_of_time(started, wall_clock, deadline)
            if timed_out is not None:
                reason = timed_out
                break
            if engine.halted:
                reason = "halt"
                break
            instantiation = engine.conflict_set.select(engine.strategy)
            if instantiation is None:
                reason = "quiescent"
                break
            if engine.fire(instantiation) is None:
                continue  # abandoned (skip/quarantine): nothing changed
            fired += 1
            if detector is not None and detector.observe(
                content_identity(instantiation),
                engine.wm.content_fingerprint(),
            ):
                culprit = instantiation.rule.name
                _livelock(on_livelock, culprit, detector.threshold)
                reason = "livelock"
                break
    engine.last_run_report = RunReport(
        fired, reason, perf_counter() - started, livelock_rule=culprit
    )
    _checkpoint_if_due(engine)
    return fired


def run_parallel_guarded(engine, max_cycles=None, *, wall_clock=None,
                         deadline=None, firing_budget=None,
                         livelock_threshold=None, on_livelock="stop"):
    """``RuleEngine.run_parallel`` with budgets and the watchdog.

    Livelock is judged per parallel cycle: a whole cycle that fires
    but returns working memory to an already-seen content fingerprint
    more than the threshold is a cycle-level refire loop.  *deadline*
    is an absolute :func:`time.monotonic` cutoff, as in
    :func:`run_guarded`.
    """
    detector = _make_detector(engine, livelock_threshold, on_livelock)
    started = perf_counter()
    cycles = 0
    total_fired = 0
    total_conflicted = 0
    total_abandoned = 0
    reason = "quiescent"
    culprit = None
    with commit_scope(engine):
        while max_cycles is None or cycles < max_cycles:
            timed_out = _out_of_time(started, wall_clock, deadline)
            if timed_out is not None:
                reason = timed_out
                break
            if (firing_budget is not None
                    and total_fired >= firing_budget):
                reason = "limit"
                break
            fired, conflicted, abandoned = engine.parallel_cycle()
            if fired == 0 and conflicted == 0 and abandoned == 0:
                reason = "halt" if engine.halted else "quiescent"
                break
            cycles += 1
            total_fired += fired
            total_conflicted += conflicted
            total_abandoned += abandoned
            if engine.halted:
                reason = "halt"
                break
            if detector is not None and fired and detector.observe(
                "(cycle)", engine.wm.content_fingerprint()
            ):
                culprit = "(parallel cycle)"
                _livelock(on_livelock, culprit, detector.threshold)
                reason = "livelock"
                break
        else:
            reason = "limit"
    engine.last_run_report = RunReport(
        total_fired, reason, perf_counter() - started, cycles=cycles,
        conflicted=total_conflicted, abandoned=total_abandoned,
        livelock_rule=culprit,
    )
    _checkpoint_if_due(engine)
    return ParallelRunResult(
        cycles, total_fired, total_conflicted, total_abandoned
    )
