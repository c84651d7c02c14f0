"""The recognize-act cycle: :class:`RuleEngine` ties everything together.

Typical use::

    from repro import RuleEngine

    engine = RuleEngine()
    engine.load('''
        (literalize player name team)
        (p compete
          [player ^name <n1> ^team A]
          (player ^name <n2> ^team B)
          -->
          (write <n2> competes))
    ''')
    engine.make("player", name="Jack", team="A")
    engine.make("player", name="Sue", team="B")
    engine.run()
    print(engine.tracer.output)

The matcher defaults to the extended Rete network; pass
``matcher="naive"`` or ``"dips"`` to swap algorithms —
conflict-set contents and firing behaviour are identical by contract
(and by differential test).
"""

from __future__ import annotations

import threading

from repro.analysis import RuleAnalysis
from repro.engine import parallel as _parallel
from repro.engine import reliability as _reliability
from repro.engine.conflict import ConflictSet, strategy_named
from repro.engine.reliability import ReliabilityManager
from repro.engine.stats import NULL_STATS
from repro.engine.tracing import Tracer
from repro.errors import EngineError, RuleError
from repro.lang.ast import Rule
from repro.lang.parser import parse_program, parse_rule
from repro.match import build_matcher, matcher_name
from repro.wm.memory import WorkingMemory


class RuleEngine:
    """An OPS5/C5 interpreter with the paper's set-oriented constructs."""

    def __init__(self, matcher=None, strategy="lex", echo=False,
                 stats=None, trace_limit=None, durability=None,
                 on_error="halt"):
        """*stats*: a :class:`repro.engine.stats.MatchStats` collector,
        wired through the matcher, the tracer, and the cycle timer
        (default: the no-op :data:`~repro.engine.stats.NULL_STATS`).
        *trace_limit*: bound the tracer's record lists as ring buffers.
        *durability*: a :class:`repro.durability.DurabilityConfig` (or a
        WAL directory path) enabling write-ahead logging of every WM
        change and firing; see :meth:`checkpoint` and :meth:`recover`.
        *on_error*: the engine-wide firing error policy — a policy
        object or spec string (``halt`` / ``skip`` / ``retry[:n[:b]]``
        / ``quarantine[:k]``); see :mod:`repro.engine.reliability` and
        :meth:`set_error_policy` for per-rule overrides.
        """
        self.wm = WorkingMemory()
        self.stats = stats if stats is not None else NULL_STATS
        if matcher is None:
            matcher = "rete"
        if isinstance(matcher, str):
            matcher = build_matcher(matcher)
        self.matcher = matcher
        if stats is not None:
            self.matcher.set_stats(stats)
        self.conflict_set = ConflictSet()
        self.matcher.set_listener(self.conflict_set)
        self.matcher.attach(self.wm)
        self.strategy = (
            strategy_named(strategy) if isinstance(strategy, str) else strategy
        )
        self.durability = None
        if durability is not None:
            from repro.durability import DurabilityManager

            self.durability = DurabilityManager(
                durability, stats=self.stats
            )
            self.durability.attach(self.wm)
            self.durability.log_meta(
                matcher_name(self.matcher), self.strategy.name
            )
        self.tracer = Tracer(echo=echo, max_records=trace_limit,
                             stats=self.stats)
        self.reliability = ReliabilityManager(on_error)
        self.last_run_report = None
        self.rules = {}
        self.analyses = {}
        self.functions = {}
        self.halted = False
        self.cycle_count = 0
        self._close_lock = threading.Lock()
        self.closed = False
        # Request-dedup journal: idempotency key -> the response of the
        # mutating request that carried it.  The service layer consults
        # it before applying a retried request; durable sessions carry
        # the entries through the WAL and checkpoint manifest so a
        # crash-and-recover cannot double-apply an acknowledged request.
        self.request_journal = {}

    # -- program definition ---------------------------------------------------

    def register_function(self, name, function):
        """Expose a Python callable to RHS ``(call name args...)``.

        The callable receives the evaluated argument values; its return
        value is ignored (use it for side effects — logging, callbacks,
        bridging into host code).
        """
        self.functions[name] = function

    def literalize(self, wme_class, *attributes):
        """Declare a WME class (``(literalize class attr ...)``)."""
        self.wm.registry.literalize(wme_class, attributes)
        if self.durability is not None:
            self.durability.log_literalize(wme_class, attributes)

    def add_rule(self, rule):
        """Add one rule: an AST :class:`Rule` or ``(p ...)`` source text."""
        if isinstance(rule, str):
            rule = parse_rule(rule)
        if not isinstance(rule, Rule):
            raise RuleError(f"expected a Rule or source text, got {rule!r}")
        if rule.name in self.rules:
            raise RuleError(f"rule {rule.name} already defined")
        self._check_no_open_batch("add_rule")
        self.rules[rule.name] = rule
        self.analyses[rule.name] = RuleAnalysis(rule)
        self.matcher.add_rule(rule)
        if self.durability is not None:
            self.durability.log_rule(rule)
        return rule

    def excise(self, rule_name):
        """Remove a rule at runtime (OPS5 excise).

        Its conflict-set instantiations are retracted; working memory
        is untouched.  Fault-containment state is reconciled: a
        quarantined rule's parked pool is dropped (never resurrected)
        and its quarantine/failure bookkeeping cleared.
        """
        if rule_name not in self.rules:
            raise RuleError(f"no rule named {rule_name}")
        self._check_no_open_batch("excise")
        self._forget_rule(rule_name)
        if self.durability is not None:
            self.durability.log_excise(rule_name)

    def replace_rule(self, rule_name, rule):
        """Atomically excise *rule_name* and add *rule* in its place.

        *rule* is an AST :class:`Rule` or ``(p ...)`` source text; its
        name may differ from *rule_name*.  The swap is logged as one
        WAL record, so a crash between the excise and the add cannot
        leave recovery with neither (or both) rule.  The new rule
        backfills from live working memory exactly as :meth:`add_rule`
        does.  Returns the new rule.
        """
        if isinstance(rule, str):
            rule = parse_rule(rule)
        if not isinstance(rule, Rule):
            raise RuleError(f"expected a Rule or source text, got {rule!r}")
        if rule_name not in self.rules:
            raise RuleError(f"no rule named {rule_name}")
        if rule.name != rule_name and rule.name in self.rules:
            raise RuleError(f"rule {rule.name} already defined")
        self._check_no_open_batch("replace_rule")
        self._forget_rule(rule_name)
        self.rules[rule.name] = rule
        self.analyses[rule.name] = RuleAnalysis(rule)
        self.matcher.add_rule(rule)
        if self.durability is not None:
            self.durability.log_replace(rule_name, rule)
        return rule

    def _forget_rule(self, rule_name):
        """Drop every trace of *rule_name* from engine-side state."""
        self.matcher.remove_rule(rule_name)
        del self.rules[rule_name]
        del self.analyses[rule_name]
        # Parked instantiations and quarantine/failure bookkeeping must
        # not outlive the rule: an orphaned parked pool would silently
        # swallow the instantiations of any later rule reusing the name
        # (ConflictSet.insert routes by rule name).
        self.conflict_set.drop_rule(rule_name)
        self.reliability.quarantined.pop(rule_name, None)
        self.reliability.failure_counts.pop(rule_name, None)

    def _check_no_open_batch(self, op):
        """Rule surgery inside an open batch() would double-propagate:
        the backfill sees staged WMEs that the flush then re-delivers."""
        if self.wm.in_batch:
            raise EngineError(f"cannot {op}() inside an open batch()")

    def load(self, source):
        """Load a whole program: literalize declarations plus rules."""
        literalizations, rules = parse_program(source)
        for wme_class, attributes in literalizations:
            self.literalize(wme_class, *attributes)
        for rule in rules:
            self.add_rule(rule)
        return rules

    # -- working memory -----------------------------------------------------

    def make(self, wme_class, **values):
        """Add a WME to working memory (matching updates immediately)."""
        return self.wm.make(wme_class, **values)

    def remove(self, wme):
        """Remove a WME (by object or time tag) from working memory."""
        return self.wm.remove(wme)

    def modify(self, wme, **updates):
        """OPS5 modify: remove + re-make with a fresh time tag."""
        return self.wm.modify(wme, **updates)

    def batch(self):
        """Collect WM changes into one atomic delta-set.

        Inside the ``with`` block, ``make``/``remove``/``modify`` mutate
        working memory immediately but defer match propagation; on exit
        the net delta-set (cancelling make/remove pairs coalesced away)
        flows through the matcher in one set-oriented pass::

            with engine.batch():
                for name, team in roster:
                    engine.make("player", name=name, team=team)

        Nested ``batch()`` blocks extend the outermost one.  Semantics
        are those of applying the net delta-set atomically: the
        resulting conflict set and firing order are identical to
        per-event propagation.
        """
        return self.wm.batch(stats=self.stats)

    def load_facts(self, facts):
        """Bulk-load ``(wme_class, attrs_dict)`` pairs in one batch.

        Returns the created WMEs in input order.  This is the bulk-load
        entry point the paper's database framing calls for: one
        set-oriented pass through the match network (and, under DIPS,
        one INSERT statement per table) instead of one per fact, and
        one pass of working memory's own that builds, checks, tags and
        buffers the facts (:meth:`~repro.wm.memory.WorkingMemory.make_all`).
        """
        return self.wm.make_all(facts, self.stats)

    # -- the cycle ------------------------------------------------------------

    def halt(self):
        """Stop after the current firing (the RHS ``(halt)`` action)."""
        self.halted = True

    def step(self):
        """One recognize-act cycle; returns the fired instantiation or None."""
        if self.halted:
            return None
        instantiation = self.conflict_set.select(self.strategy)
        if instantiation is None:
            return None
        self.fire(instantiation)
        return instantiation

    def fire(self, instantiation):
        """Fire *instantiation* atomically (normally via :meth:`step`).

        The RHS stages its effects in a working-memory transaction: on
        success they flush through the batched propagation path (the
        write-ahead log first); on an RHS exception the firing rolls
        back to the exact pre-fire state and the rule's error policy
        decides between halt (raise :class:`~repro.errors.FiringError`),
        skip, retry, and quarantine — see
        :mod:`repro.engine.reliability`.  Refraction is stamped before
        the RHS runs: per the paper's section 6 control semantics, any
        change to the instantiation — including one caused by its own
        firing — makes it eligible again.  In the WAL the stamp opens a
        bracketed transaction closed by an ``e`` (commit) or ``a``
        (abort) record, so recovery replays the same outcome.

        Returns the firing's trace record, or None when the policy
        abandoned the instantiation.
        """
        return _reliability.fire(self, instantiation)

    def run(self, limit=None, *, wall_clock=None, deadline=None,
            livelock_threshold=None, on_livelock="stop"):
        """Run cycles until quiescence, ``(halt)``, or a budget.

        *limit* bounds firings; *wall_clock* bounds elapsed seconds;
        *deadline* is an absolute :func:`time.monotonic` cutoff (the
        service layer propagates per-request deadlines here, stopping
        with reason ``"deadline"``); *livelock_threshold* arms the
        refire-cycle watchdog (same instantiation content firing more
        than N times with no net working-memory change), which stops
        gracefully or raises :class:`~repro.errors.LivelockError` per
        *on_livelock* (``"stop"``/``"raise"``).  Why the run stopped
        is recorded in ``self.last_run_report``.  Returns the number
        of firings.

        With durability attached, a run that leaves the log past its
        bound checkpoints the engine once its frames are synced
        (:meth:`~repro.durability.manager.DurabilityManager.checkpoint_due`);
        a run inside a batch, a firing or an open commit scope leaves
        that to whoever closes the scope.
        """
        return _reliability.run_guarded(
            self, limit, wall_clock=wall_clock, deadline=deadline,
            livelock_threshold=livelock_threshold,
            on_livelock=on_livelock,
        )

    # -- fault containment ------------------------------------------------

    def set_error_policy(self, policy, rule=None):
        """Set the firing error policy — engine-wide, or for one *rule*.

        *policy* is a policy object or spec string (``halt``, ``skip``,
        ``retry[:n[:backoff[:then]]]``, ``quarantine[:after]``).
        """
        return self.reliability.set_policy(policy, rule)

    @property
    def dead_letters(self):
        """Poison instantiations abandoned by skip/quarantine policies."""
        return list(self.reliability.dead_letters)

    def quarantined_rules(self):
        """Quarantine registry: rule name -> failure details."""
        return dict(self.reliability.quarantined)

    def release_rule(self, rule_name):
        """Re-admit a quarantined rule to conflict resolution.

        Its parked instantiations (kept current by the matcher all
        along) return to the conflict set; the rule's failure count
        resets.  Returns the number of instantiations restored.
        Releasing a rule that no longer exists (excised while
        quarantined) is an error — its stamps are gone for good.
        """
        if rule_name not in self.rules:
            raise RuleError(f"no rule named {rule_name}")
        restored = self.reliability.release(self, rule_name)
        if self.durability is not None:
            self.durability.log_release(rule_name)
        return restored

    # -- parallel firing (the DIPS §8.1 execution model, in memory) -------

    def parallel_cycle(self):
        """Fire every eligible instantiation of one cycle in parallel.

        DIPS "attempts to execute all satisfied instantiations
        concurrently" (paper §8.1).  The eligible set is snapshotted,
        then its members fire one after another in conflict-resolution
        order — unless an earlier firing of the *same cycle* already
        invalidated a member (retracted it from the conflict set, or
        changed the SOI it views), in which case it is a *conflict*,
        the mutual-invalidation case the paper criticises
        tuple-oriented rules for.  See :mod:`repro.engine.parallel`.

        Returns a ``CycleResult(fired, conflicted, abandoned)``
        namedtuple; ``abandoned`` counts members whose error policy
        gave up on them (skip/quarantine) — every snapshot member lands
        in exactly one of the three buckets unless a ``halt`` stopped
        the cycle midway.
        """
        return _parallel.execute_cycle(self)

    def run_parallel(self, max_cycles=None, *, wall_clock=None,
                     deadline=None, firing_budget=None,
                     livelock_threshold=None, on_livelock="stop"):
        """Repeat :meth:`parallel_cycle` until quiescence or a budget.

        *max_cycles* bounds parallel cycles, *firing_budget* total
        firings, *wall_clock* elapsed seconds, *deadline* an absolute
        :func:`time.monotonic` cutoff; *livelock_threshold* /
        *on_livelock* arm the cycle-level refire watchdog (see
        :meth:`run`).  Returns a ``ParallelRunResult(cycles, fired,
        conflicted, abandoned)`` namedtuple; why the run stopped is in
        ``self.last_run_report``.
        """
        return _reliability.run_parallel_guarded(
            self, max_cycles, wall_clock=wall_clock, deadline=deadline,
            firing_budget=firing_budget,
            livelock_threshold=livelock_threshold,
            on_livelock=on_livelock,
        )

    def reset(self):
        """Clear working memory, trace, fault state, and the halt flag.

        Rules stay.  Matching state empties through one batched
        removal delta-set; dead letters and failure counts clear and
        quarantined rules are released, so the engine is ready for a
        fresh scenario against the same rule base.  With durability
        attached the clear is logged as an ordinary delta record
        followed by a reset record, so :meth:`recover` replays the
        reset instead of resurrecting pre-reset control state.
        """
        if self.wm.in_batch:
            raise EngineError("cannot reset() inside an open batch()")
        with self.wm.batch(stats=self.stats):
            self.wm.clear()
        self.tracer.clear()
        self.halted = False
        self.cycle_count = 0
        self.reliability.clear_runtime_state(self)
        self.last_run_report = None
        if self.durability is not None:
            self.durability.log_reset()

    # -- durability -----------------------------------------------------------

    def checkpoint(self):
        """Write an atomic durability checkpoint; returns its path.

        Requires the engine to have been constructed with
        ``durability=...`` (or recovered).  Obsolete WAL segments are
        truncated afterwards, bounding recovery time.
        """
        if self.durability is None:
            raise EngineError(
                "checkpoint() requires durability; construct the engine "
                "with durability=DurabilityConfig(...)"
            )
        return self.durability.checkpoint(self)

    @classmethod
    def recover(cls, path, **kwargs):
        """Rebuild an engine from the WAL directory *path*.

        Loads the latest valid checkpoint (if any) and replays the WAL
        tail through the batched propagation path, so the recovered
        conflict set, refraction state, and working memory match the
        crashed process exactly — up to the last durable record.  See
        :func:`repro.durability.recover_engine` for keyword options.
        """
        from repro.durability import recover_engine

        return recover_engine(cls, path, **kwargs)

    def close(self):
        """Release the matcher and the durability log.

        Idempotent and thread-safe: the service layer's eviction path
        (idle-TTL sweeps, LRU pressure) can race a client-initiated
        close — both calls succeed, the second (and any later one)
        doing nothing.  ``closed`` reports whether a close has
        completed.
        """
        with self._close_lock:
            if self.closed:
                return
            closer = getattr(self.matcher, "close", None)
            if closer is not None:
                closer()
            if self.durability is not None:
                self.durability.close()
                self.durability = None
            self.closed = True

    # -- inspection -----------------------------------------------------------

    @property
    def output(self):
        """Lines produced by ``(write ...)`` so far."""
        return list(self.tracer.output)

    def conflict_set_size(self):
        """Number of instantiations currently in the conflict set."""
        return len(self.conflict_set)

    def __repr__(self):
        return (
            f"RuleEngine({len(self.rules)} rules, {len(self.wm)} WMEs, "
            f"{len(self.conflict_set)} instantiations)"
        )
