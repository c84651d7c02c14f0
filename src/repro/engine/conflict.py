"""The conflict set and OPS5 conflict-resolution strategies.

Both classic strategies are provided:

* **LEX** — refraction, then recency of the instantiation's time tags
  (sorted descending, compared lexicographically; with an equal prefix
  the longer list dominates), then specificity, then a deterministic
  tie-break;
* **MEA** — like LEX but the recency of the *first* CE's WME is
  compared before the full tag list (means-ends analysis).

The conflict set keeps its members ranked: ``insert``/``retract`` are
dict operations, ``select`` ranks only the arrivals that survived to it
and reads the dominant one off the end of a sorted list, discarding
retracted entries as they surface — O(log N) a cycle, not a ``max`` over
every live instantiation.  An SOI's key (its head token, paper §5) and
eligibility are live views of it, and γ-memory reports each change
through its ``on_change`` hook: ``select`` re-keys the changed SOIs like
arrivals and discards records keyed at an older version.  A ``time``
mark only bumps a counter.  Key ties go to the earlier member of the set.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from itertools import count

from repro.errors import ConflictResolutionError
from repro.match.base import ConflictListener


class LexStrategy:
    """OPS5 LEX ordering."""

    name = "lex"

    def key(self, instantiation):
        return (
            instantiation.recency_key(),
            instantiation.specificity(),
            instantiation.rule.name,
        )


class MeaStrategy:
    """OPS5 MEA ordering (first-CE recency dominates)."""

    name = "mea"

    def key(self, instantiation):
        return (
            instantiation.mea_tag(),
            instantiation.recency_key(),
            instantiation.specificity(),
            instantiation.rule.name,
        )


_STRATEGIES = {"lex": LexStrategy, "mea": MeaStrategy}


def strategy_named(name):
    """Instantiate a strategy by name ('lex' or 'mea')."""
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ConflictResolutionError(
            f"unknown strategy {name!r}; expected one of "
            f"{sorted(_STRATEGIES)}"
        ) from None


class ConflictSet(ConflictListener):
    """The live set of satisfied instantiations.

    ``_instantiations`` is the one source of truth for membership and
    iteration order.  Beside it every member has one record
    ``(key, -stamp, instantiation, version)`` in ``_pending`` (admitted,
    not yet keyed), ``_ranked`` (sorted under ``_strategy``, dominant
    last) or ``_spent`` (found fired at the top); ``version`` is the SOI
    version keyed, None for a regular member.  A departed member's
    record, or an SOI's older one, is dropped when it surfaces, and by
    :meth:`_trim` before such records outnumber the members:
    :meth:`ordering_size` <= ``2 * len(self)``.
    """

    def __init__(self):
        self._instantiations = {}
        # Quarantined rules: rule name -> {identity: instantiation}.
        # Parked instantiations stay matched (matchers keep them
        # current through insert/retract) but are invisible to
        # selection until released.
        self._parked = {}
        # identity -> admission stamp, rising in iteration order: it
        # breaks key ties the way ``max`` over the members would (first
        # wins) and tells a member's record from a stale one.
        self._stamps = {}
        self._clock = count()
        # SOIs admitted or changed since the last select.
        self._changed = set()
        self._pending = []
        self._ranked = []
        self._spent = []
        self._strategy = None
        self.inserts = 0
        self.retracts = 0
        self.repositions = 0

    def _admit(self, identity, instantiation):
        self._instantiations[identity] = instantiation
        stamp = self._stamps[identity] = next(self._clock)
        if instantiation.is_set_oriented:
            instantiation.soi.on_change = partial(
                self._changed.add, instantiation
            )
            self._changed.add(instantiation)
        else:
            self._pending.append((None, -stamp, instantiation, None))

    def _evict(self, identity):
        instantiation = self._instantiations.pop(identity, None)
        if instantiation is not None:
            del self._stamps[identity]
            if instantiation.is_set_oriented:
                instantiation.soi.on_change = None
                self._changed.discard(instantiation)
        return instantiation

    def _live(self, record):
        _, stamp, member, version = record
        return self._stamps.get(member.identity()) == -stamp and (
            version is None or version == member.soi.version)

    def _trim(self):
        if self.ordering_size() > 2 * len(self._instantiations):
            for records in (self._pending, self._ranked, self._spent):
                records[:] = filter(self._live, records)

    # -- listener side -----------------------------------------------------

    def insert(self, instantiation):
        pool = self._parked.get(instantiation.rule.name)
        if pool is not None:
            pool[instantiation.identity()] = instantiation
        else:
            self._admit(instantiation.identity(), instantiation)
        self.inserts += 1

    def retract(self, instantiation):
        identity = instantiation.identity()
        if self._evict(identity) is not None:
            self._trim()
        else:
            pool = self._parked.get(instantiation.rule.name)
            if pool is not None:
                pool.pop(identity, None)
        self.retracts += 1

    def reposition(self, instantiation):
        # The SOI's change already reached _changed through on_change,
        # so a 'time' mark needs no structural work; we count it for the
        # S-node protocol tests and statistics.
        self.repositions += 1

    def restore_refraction(self, instantiation, state):
        """Restore a ``refraction_state`` snapshot where selection sees it.

        A rolled-back firing goes through here, not through the
        instantiation alone: a member found fired at the top of the
        order has left it for ``_spent`` and must be ranked again.
        """
        instantiation.restore_refraction(state)
        self._pending += self._spent
        self._spent.clear()

    # -- engine side ------------------------------------------------------

    def __len__(self):
        return len(self._instantiations)

    def __iter__(self):
        return iter(self._instantiations.values())

    def instantiations(self):
        return list(self._instantiations.values())

    def current(self, identity):
        """The live instantiation with *identity*, or None.

        Parked (quarantined) instantiations are excluded: they are not
        candidates for firing.
        """
        return self._instantiations.get(identity)

    def of_rule(self, rule_name):
        return [
            inst
            for inst in self._instantiations.values()
            if inst.rule.name == rule_name
        ]

    # -- quarantine parking ------------------------------------------------

    def quarantine_rule(self, rule_name):
        """Detach *rule_name*'s instantiations from selection.

        They move to a parked pool that insert/retract keep current, so
        a later :meth:`release_rule` re-admits exactly the
        instantiations that would be live had the rule never been
        quarantined.  Returns the number parked now.
        """
        pool = self._parked.setdefault(rule_name, {})
        moved = [
            identity
            for identity, inst in self._instantiations.items()
            if inst.rule.name == rule_name
        ]
        for identity in moved:
            pool[identity] = self._evict(identity)
        self._trim()
        return len(pool)

    def release_rule(self, rule_name):
        """Re-admit a quarantined rule; returns instantiations restored."""
        pool = self._parked.pop(rule_name, None)
        if not pool:
            return 0
        for identity, instantiation in pool.items():
            self._admit(identity, instantiation)
        return len(pool)

    def drop_rule(self, rule_name):
        """Discard a rule's parked pool without re-admitting it.

        Excising a quarantined rule must not leave orphaned parked
        stamps behind (they would silently swallow the instantiations
        of any later rule reusing the name — ``insert`` routes by rule
        name).  Returns the number of parked instantiations dropped.
        """
        pool = self._parked.pop(rule_name, None)
        return len(pool) if pool else 0

    def parked_rules(self):
        """Names of currently quarantined rules."""
        return sorted(self._parked)

    def parked_of_rule(self, rule_name):
        """Parked instantiations of one quarantined rule."""
        return list(self._parked.get(rule_name, {}).values())

    def ordering_size(self):
        """Records the ordering holds, departed members' included."""
        return len(self._ranked) + len(self._pending) + len(self._spent)

    def select(self, strategy):
        """The dominant eligible instantiation, or None (refraction applies)."""
        ranked = self._ranked
        if strategy is not self._strategy:
            # The cached order belongs to one strategy: rank afresh.
            self._strategy = strategy
            self._pending += ranked + self._spent
            ranked.clear()
            self._spent.clear()
        if self._changed:
            self._pending.extend(
                (None, -self._stamps[inst.identity()], inst, inst.soi.version)
                for inst in self._changed
            )
            self._changed.clear()
            self._trim()  # the changed SOIs' older records are stale now
        if self._pending:
            key = strategy.key
            fresh = [
                (key(record[2]), record[1], record[2], record[3])
                for record in self._pending if self._live(record)
            ]
            self._pending.clear()
            if len(fresh) * 16 < len(ranked):
                # A few arrivals: log N comparisons each beat a re-sort.
                for record in fresh:
                    insort(ranked, record)
            else:
                ranked.extend(fresh)
                ranked.sort()
        while ranked:
            if not self._live(ranked[-1]):
                ranked.pop()  # retracted, parked or changed since ranked
            elif ranked[-1][2].eligible():
                return ranked[-1][2]
            else:
                self._spent.append(ranked.pop())
        return None

    def ordered(self, strategy):
        """All instantiations, dominant first (ignores refraction)."""
        return sorted(
            self._instantiations.values(),
            key=strategy.key,
            reverse=True,
        )

    def eligible_snapshot(self, strategy):
        """Eligible instantiations, dominant first (refraction applies).

        The parallel cycle fires this whole list; it is a snapshot —
        later mutations of the conflict set do not affect it.
        """
        return sorted(
            (
                inst
                for inst in self._instantiations.values()
                if inst.eligible()
            ),
            key=strategy.key,
            reverse=True,
        )
