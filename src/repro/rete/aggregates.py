"""Incremental aggregate maintenance for S-nodes (paper section 4.2/5).

The paper stores each aggregate as "the aggregate's current value
followed by a list of (value, counter) pairs representing the values in
the WMEs used in the computation".  :class:`AggregateState` implements
exactly that: contributions keyed by their source with a multiplicity
counter (tokens can share WMEs/values across the join product), and the
current value maintained incrementally — ``count``/``sum``/``avg`` in
O(1), ``min``/``max`` recomputed only when the extremum's counter drops
to zero.

Two target kinds (mirroring the paper's APVs and ACEs):

* a **set-oriented pattern variable** — the aggregate ranges over the
  PV's *domain*, i.e. the distinct values it takes in the SOI;
* a **set-oriented condition element** — the aggregate ranges over the
  distinct member WMEs (``count``), or over a named attribute of those
  WMEs (``sum``/``min``/``max``/``avg``).
"""

from __future__ import annotations

from repro import symbols
from repro.errors import EngineError


class AggregateSpec:
    """Static description of one aggregate operation of a rule.

    ``kind`` is ``"pv"`` or ``"ce"``.  For a PV target, ``level`` and
    ``attribute`` give the variable's binding site.  For a CE target,
    ``level`` is the CE's position and ``attribute`` the optional value
    attribute (required for numeric aggregates).  ``identity`` is the
    ``(op, target, attribute)`` of the source expression the spec was
    built for — what a reader looks its maintained state up by — and
    ``readers`` names the halves of the rule (``"test"``, ``"rhs"``)
    that read it from γ-memory.
    """

    __slots__ = ("op", "target", "kind", "level", "attribute", "identity",
                 "readers")

    def __init__(self, op, target, kind, level, attribute=None,
                 identity=None):
        if kind not in ("pv", "ce"):
            raise ValueError(f"aggregate kind must be 'pv' or 'ce': {kind!r}")
        if kind == "ce" and attribute is None and op != "count":
            raise EngineError(
                f"aggregate ({op} <{target}>) over a condition element "
                f"needs an ^attribute to aggregate"
            )
        self.op = op
        self.target = target
        self.kind = kind
        self.level = level
        self.attribute = attribute
        self.identity = identity or (op, target, attribute)
        self.readers = ()

    @classmethod
    def for_node(cls, node, rule_name, element_vars, set_sites):
        """The spec of aggregate expression *node* in rule *rule_name*.

        *element_vars* maps element variables to CE levels, *set_sites*
        set-oriented PVs to their binding sites.  Raises
        :class:`EngineError` for a target that is neither.
        """
        identity = (node.op, node.target, node.attribute)
        if node.target in element_vars:
            return cls(node.op, node.target, "ce",
                       element_vars[node.target], node.attribute, identity)
        if node.target in set_sites:
            level, attribute = set_sites[node.target]
            return cls(node.op, node.target, "pv", level, attribute,
                       identity)
        raise EngineError(
            f"rule {rule_name}: aggregate target <{node.target}> is not "
            f"set-oriented"
        )

    def contribution(self, token):
        """(key, value) this token contributes, or None if inapplicable.

        For a PV spec the key *is* the value (domain semantics: distinct
        values).  For a CE spec the key is the member WME's time tag
        (distinct WMEs), the value its aggregated attribute.
        """
        wme = token.wme_at(self.level)
        if wme is None:
            return None
        if self.kind == "pv":
            value = wme.get(self.attribute)
            return (value, value)
        value = wme.get(self.attribute) if self.attribute else None
        return (wme.time_tag, value)

    def __repr__(self):
        attr = f" ^{self.attribute}" if self.attribute else ""
        return f"AggregateSpec({self.op} <{self.target}>{attr} [{self.kind}])"


class AggregateState:
    """Incrementally maintained value of one aggregate over one SOI."""

    __slots__ = (
        "spec",
        "contributions",
        "_sum",
        "_extremum",
        "_dirty",
        "_non_numeric",
        "_mixed",
        "_floats",
    )

    def __init__(self, spec):
        self.spec = spec
        # key -> [value, counter]
        self.contributions = {}
        self._sum = 0
        self._extremum = None
        self._dirty = False
        self._non_numeric = 0
        # ``_sum`` holds the int contributions only, so it stays exact
        # across any sequence of adds and removes.  Floats are counted,
        # the way non-numerics are; while there are any, ``_mixed`` is
        # the running total of all numbers in arrival order — what a
        # fold over the same tokens has always produced, bit for bit.
        self._mixed = 0
        self._floats = 0

    # -- updates -----------------------------------------------------------

    def add_token(self, token):
        contribution = self.spec.contribution(token)
        if contribution is None:
            return
        key, value = contribution
        entry = self.contributions.get(key)
        if entry is not None:
            entry[1] += 1
            return
        self.contributions[key] = [value, 1]
        self._on_key_added(value)

    def remove_token(self, token):
        contribution = self.spec.contribution(token)
        if contribution is None:
            return
        key, _ = contribution
        entry = self.contributions.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            value = entry[0]
            del self.contributions[key]
            self._on_key_removed(value)

    def _on_key_added(self, value):
        op = self.spec.op
        if op in ("sum", "avg"):
            if not symbols.is_number(value):
                self._non_numeric += 1
                return
            if isinstance(value, float):
                if not self._floats:
                    self._mixed = self._sum
                self._floats += 1
            else:
                self._sum += value
            if self._floats:
                self._mixed += value
        elif op in ("min", "max") and not self._dirty:
            if self._extremum is None or self._beats(value, self._extremum):
                self._extremum = value

    def _on_key_removed(self, value):
        op = self.spec.op
        if op in ("sum", "avg"):
            if not symbols.is_number(value):
                self._non_numeric -= 1
                return
            if isinstance(value, float):
                self._floats -= 1
            else:
                self._sum -= value
            if self._floats:
                self._mixed -= value
        elif op in ("min", "max"):
            # Recompute lazily only when the current extremum left —
            # the paper's (value, counter) bookkeeping makes this exact.
            if self._extremum is not None and value == self._extremum:
                self._dirty = True

    def _beats(self, candidate, incumbent):
        if self.spec.op == "min":
            return symbols.sort_key(candidate) < symbols.sort_key(incumbent)
        return symbols.sort_key(candidate) > symbols.sort_key(incumbent)

    # -- reads -------------------------------------------------------------

    def is_exact(self):
        """Does :meth:`value` equal a fresh fold over the same tokens,
        bit for bit?  Always for ``count``/``min``/``max``; for
        ``sum``/``avg`` while no contribution is a float (a float sum
        kept across adds and removes differs in the last bits)."""
        return not self._floats

    def value(self):
        """The aggregate's current value (None for empty min/max/avg)."""
        op = self.spec.op
        if op == "count":
            return len(self.contributions)
        if op in ("sum", "avg"):
            self._check_numeric()
            total = self._mixed if self._floats else self._sum
            if op == "sum":
                return total
            if not self.contributions:
                return None
            return total / len(self.contributions)
        # min / max
        if not self.contributions:
            self._extremum = None
            self._dirty = False
            return None
        if self._dirty or self._extremum is None:
            values = (entry[0] for entry in self.contributions.values())
            chooser = min if op == "min" else max
            self._extremum = chooser(values, key=symbols.sort_key)
            self._dirty = False
        return self._extremum

    def _check_numeric(self):
        # Tracked incrementally so value() stays O(1) (see F3b bench).
        if self._non_numeric:
            raise EngineError(
                f"aggregate {self.spec.op} over non-numeric value(s)"
            )

    def snapshot(self):
        """The paper's γ-memory AV entry: (current value, [(value, counter)])."""
        pairs = [
            (entry[0], entry[1]) for entry in self.contributions.values()
        ]
        return (self.value(), pairs)

    def __repr__(self):
        return f"AggregateState({self.spec!r}, value={self.value()!r})"
