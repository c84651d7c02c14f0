"""Working-memory change events and batched delta-sets.

Match algorithms (Rete, naive, DIPS) consume a stream of signed
deltas: ``+`` for a make, ``-`` for a remove.  ``modify`` never appears
as its own sign — OPS5 semantics define it as remove-then-make, and
:class:`~repro.wm.memory.WorkingMemory` emits exactly that pair.

:class:`DeltaBatch` is the buffering side of batched propagation
(``WorkingMemory.batch()`` / ``RuleEngine.batch()``): it collects the
signed deltas of one atomic working-memory transition as a log of the
very events observers receive, and at flush *nets out cancelling
pairs* — a WME made and removed inside the same batch never existed as
far as matching is concerned.  The surviving deltas keep their original
relative order (stable netting), so per-event replay of a flushed batch
is a well-defined fallback for matchers without a set-oriented batch
entry point.
"""

from __future__ import annotations

#: Sign of an event adding a WME.
ADD = "+"
#: Sign of an event removing a WME.
REMOVE = "-"


class WMEvent:
    """A single signed working-memory delta."""

    __slots__ = ("sign", "wme")

    def __init__(self, sign, wme):
        if sign not in (ADD, REMOVE):
            raise ValueError(f"event sign must be '+' or '-', got {sign!r}")
        self.sign = sign
        self.wme = wme

    @property
    def is_add(self):
        return self.sign == ADD

    @property
    def is_remove(self):
        return self.sign == REMOVE

    def __eq__(self, other):
        if not isinstance(other, WMEvent):
            return NotImplemented
        return self.sign == other.sign and self.wme == other.wme

    def __hash__(self):
        return hash((self.sign, self.wme))

    def __repr__(self):
        return f"<{self.sign}{self.wme!r}>"


class DeltaBatch:
    """One atomic set of signed WM deltas: an append-only log of the
    :class:`WMEvent` objects observers receive, netted once, at flush.

    ``events()`` returns the net delta-set: a WME whose ``+`` and ``-``
    are both in the log was made and removed inside the batch, so both
    entries drop out (*coalesced*) and the survivors keep their
    original order (stable netting).  With no removes or no adds it is
    the log itself.  Netting is exact because time tags are never
    reused while the log holds them: a make creates a fresh WME, and a
    rollback truncates the log together with the tag counter.

    A savepoint taken with :meth:`mark` is the log's length, and
    :meth:`rewind` truncates back to it — the staging half of atomic
    rule firings (:mod:`repro.engine.reliability`): RHS effects
    buffered here never reached an observer, so discarding them plus
    undoing the working-memory multiset restores the exact pre-fire
    state.
    """

    __slots__ = ("_log",)

    def __init__(self):
        self._log = []

    def record(self, sign, wme):
        self._log.append(WMEvent(sign, wme))

    @property
    def submitted(self):
        """Number of deltas recorded, before netting."""
        return len(self._log)

    @property
    def coalesced(self):
        """Number of recorded deltas netting drops."""
        return len(self._log) - len(self.events())

    # -- savepoints ----------------------------------------------------

    def mark(self):
        """An opaque savepoint: everything recorded so far is kept."""
        return len(self._log)

    def rewind(self, mark):
        """Truncate the log back to *mark*.

        Returns the undone mutations as ``(sign, wme)`` pairs, newest
        first, so working memory (a rollback, or a flush the log
        refused) can apply the inverse of each to the WME multiset.
        """
        undone = [(e.sign, e.wme) for e in reversed(self._log[mark:])]
        del self._log[mark:]
        return undone

    def events(self):
        """The net delta-set, in original order, as WMEvents."""
        log = self._log
        removed = {e.wme for e in log if e.sign == REMOVE}
        if not removed or len(removed) == len(log):
            return log
        born = {e.wme for e in log if e.sign == ADD and e.wme in removed}
        return [e for e in log if e.wme not in born] if born else log

    def __len__(self):
        """Number of surviving (net) deltas."""
        return len(self.events())

    def __repr__(self):
        return f"DeltaBatch({len(self)} net, {self.coalesced} coalesced)"
