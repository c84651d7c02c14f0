"""S-nodes: aggregation of regular instantiations into SOIs (paper §5).

An S-node is "placed after the last test node of a rule containing set
clauses".  Its static, rule-derived data is the paper's five-tuple
``(C, P, APVs, ACEs, T)``:

* ``C`` — the non-set-oriented (scalar) CEs: here ``scalar_levels``;
* ``P`` — the set-oriented PVs named in ``:scalar``: here ``p_specs``
  as ``(name, level, attribute)`` binding sites;
* ``APVs``/``ACEs`` — aggregate operations, unified as
  :class:`~repro.rete.aggregates.AggregateSpec`;
* ``T`` — the ``:test`` expression.

Its γ-memory is a list of candidate SOIs, each a ``(Tokens, Status,
AV)`` triple: :class:`SetOrientedInstance` keeps the tokens ordered
like the conflict set, the active/inactive status, and one
:class:`~repro.rete.aggregates.AggregateState` per aggregate — those of
``:test`` and, beyond the paper's tuple, those the RHS reads outside a
``foreach``, so neither half of the rule recomputes what Figure 3
maintains.

The token-arrival algorithm is the paper's Figure 3 verbatim — find the
SOI and the token's place in it, update aggregates and re-evaluate the
test, then decide whether to flow ``<S,+>``, ``<S,->`` or ``<S,time>``
to the P-node.  The first two stages are :class:`GammaMemory`; the
S-node adds the decide stage, its batched form and the marks.  Every
matcher — Rete, naive, DIPS — ends a set-oriented rule in an
S-node built by :func:`repro.rete.pnode.build_terminal` and stages it
around each delta-set (:meth:`repro.match.base.Matcher.staged`), so
all three run this one implementation.  One documented amendment:
when a ``same-time`` change flips the test expression from false to
true (reachable only when two tokens of one WM change share the newest
time tag), the SOI is activated; the paper's figure leaves it inactive,
which contradicts its own test semantics.  Set
``strict_paper_decide=True`` to get the figure's literal behaviour.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.engine.stats import NULL_STATS
from repro.errors import EngineError
from repro.core.expr import evaluate, is_truthy as _is_truthy
from repro.lang import ast
from repro.rete.aggregates import AggregateSpec, AggregateState

# Status values (paper: active / inactive).
ACTIVE = "active"
INACTIVE = "inactive"

# chg values from Figure 3.
CHG_NEW = "new"
CHG_DELETE = "delete"
CHG_FAIL = "fail"
CHG_NEW_TIME = "new-time"
CHG_SAME_TIME = "same-time"

# Marks sent to the P-node.
MARK_ADD = "+"
MARK_REMOVE = "-"
MARK_TIME = "time"

# Membership digest: 64-bit FNV-1a over a token's time tags.
_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def tags_mix(tags):
    """A stable 64-bit mix of one token's time tags.

    FNV-1a with one time tag per step; the closing xorshift folds high
    bits into the low ones, which FNV's multiply alone leaves
    depending on the tags' low bits only.  The value is written to the
    log, so it is defined here, never by Python's per-process
    ``hash()``.
    """
    mixed = _FNV_OFFSET
    for tag in tags:
        mixed = ((mixed ^ tag) * _FNV_PRIME) & _MASK
    return mixed ^ (mixed >> 29)


class SetOrientedInstance:
    """One candidate SOI in a γ-memory.

    Implements the protocol expected by
    :class:`repro.core.instantiation.SetInstantiation`: ``head()``,
    ``snapshot()``, ``len()``, ``version``, ``on_change``,
    ``key_wme(level)``, ``p_value(name)``, ``aggregate_state(identity)``.

    ``digest`` names the membership: the sum, mod 2**64, of
    :func:`tags_mix` over the tokens' recency keys (the bisect keys,
    already at hand), kept as tokens enter and leave.  With ``len()``
    and the head it is the SOI's refraction stamp
    (:func:`repro.durability.manager.fired_signature`), so a logged
    set-oriented firing costs the same bytes whatever the set's size.
    """

    __slots__ = (
        "key",
        "status",
        "version",
        "digest",
        "on_change",
        "agg_states",
        "_tokens",
        "_keys",
        "_key_wmes",
        "_p_values",
    )

    def __init__(self, key, key_wmes, p_values, agg_states):
        self.key = key
        self.status = INACTIVE
        self.version = 0
        self.digest = 0
        self.on_change = None
        self.agg_states = agg_states
        self._key_wmes = key_wmes
        self._p_values = p_values
        # Ascending by recency, dominant token last: arrivals mostly
        # append and a head-first drain (set-modify, set-remove) pops,
        # where a head-first list memmoves all of γ-memory per member.
        # ``_keys`` is the parallel list of cached recency keys bisect
        # searches.
        self._tokens = []
        self._keys = []

    def __len__(self):
        return len(self._tokens)

    def bump(self):
        """Bump the version and report it to the holding conflict set:
        the one place an SOI changes, marked or not."""
        self.version += 1
        if self.on_change is not None:
            self.on_change()

    def head(self):
        """The dominant (most recent) token; None when empty."""
        return self._tokens[-1] if self._tokens else None

    def snapshot(self):
        """A copy of the tokens ordered like the conflict set, head first."""
        return self._tokens[::-1]

    def key_wme(self, level):
        """The WME matched by scalar CE *level* (None if not scalar)."""
        return self._key_wmes.get(level)

    def p_value(self, name):
        """The partition value of ``:scalar`` variable *name*."""
        return self._p_values[name]

    def aggregate_state(self, identity):
        """The maintained state of aggregate ``(op, target, attribute)``,
        or None when γ-memory does not keep it."""
        for state in self.agg_states:
            if state.spec.identity == identity:
                return state
        return None

    def insert_token(self, token):
        """Insert ordered like the conflict set; True if it became head.

        Ties on recency keep arrival order: the new token is dominated
        by existing equals, so it goes before them in the ascending list.
        """
        key = token.time_tags()
        index = bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._tokens.insert(index, token)
        self.digest = (self.digest + tags_mix(key)) & _MASK
        return index == len(self._tokens) - 1

    def remove_token(self, token):
        """Remove by identity; True if it was the head token."""
        tokens = self._tokens
        key = token.time_tags()
        index = bisect_left(self._keys, key)
        while index < len(tokens) and self._keys[index] == key:
            if tokens[index] is token:
                del tokens[index]
                del self._keys[index]
                self.digest = (self.digest - tags_mix(key)) & _MASK
                return index == len(tokens)
            index += 1
        raise EngineError("token not present in SOI")

    def gamma_entry(self):
        """The paper's (Tokens, Status, AV) triple, for inspection/tests."""
        return (
            self.snapshot(),
            self.status,
            [state.snapshot() for state in self.agg_states],
        )

    def __repr__(self):
        return (
            f"SOI(key={self.key!r}, {len(self)} tokens, "
            f"{self.status}, v{self.version})"
        )


class _TestResolver:
    """Resolves variables/aggregates while evaluating an SOI's ``:test``."""

    __slots__ = ("memory", "soi")

    def __init__(self, memory, soi):
        self.memory = memory
        self.soi = soi

    def var(self, name):
        if name in self.soi._p_values:
            return self.soi._p_values[name]
        site = self.memory.analysis.binding_sites.get(name)
        if site is not None and site[0] in self.memory.scalar_levels:
            return self.soi.key_wme(site[0]).get(site[1])
        raise EngineError(
            f"rule {self.memory.rule.name}: :test references <{name}>, "
            f"which is not a scalar binding"
        )

    def aggregate(self, node):
        state = self.soi.aggregate_state(
            (node.op, node.target, node.attribute)
        )
        if state is None:
            raise EngineError(
                f"rule {self.memory.rule.name}: no aggregate state for "
                f"({node.op} <{node.target}>)"
            )
        return state.value()


class GammaMemory:
    """One set-oriented rule's γ-memory and Figure 3's first two stages.

    :meth:`add` / :meth:`remove` find the token's SOI, place the token
    in it and fold the aggregates; :meth:`passes` evaluates ``:test``
    over the maintained values.  What to tell the conflict set (stage 3)
    is the owning :class:`SNode`'s decide table and marks.

    While :attr:`journal` is a dict (the S-node's batched propagation),
    each SOI's pre-image ``(status, head)`` is recorded at first touch
    and the version is left for the flush to bump once.
    """

    def __init__(self, rule, analysis):
        self.rule = rule
        self.analysis = analysis
        self.scalar_levels = analysis.scalar_ce_levels
        self.p_specs = self._build_p_specs(rule, analysis)
        self.agg_specs = tuple(build_aggregate_specs(rule, analysis))
        self.test = rule.test
        self.sois = {}
        self.journal = None

    @staticmethod
    def _build_p_specs(rule, analysis):
        """Binding sites for the :scalar PVs that are truly set-located."""
        specs = []
        for name in rule.scalar_vars:
            site = analysis.binding_sites.get(name)
            if site is None:
                continue
            level, attribute = site
            # A :scalar var whose binding site is already a scalar CE is
            # scalar anyway; only set-CE sites partition the relation.
            if rule.ces[level].set_oriented:
                specs.append((name, level, attribute))
        # Scalar vars computed from the rule (not listed, but occurring
        # in regular CEs) are covered by C (scalar levels) already.
        return tuple(specs)

    def _key_of(self, token):
        parts = [
            token.wme_at(level).time_tag for level in self.scalar_levels
        ]
        parts.extend(
            token.wme_at(level).get(attribute)
            for _, level, attribute in self.p_specs
        )
        return tuple(parts)

    def _new_soi(self, key, token):
        key_wmes = {
            level: token.wme_at(level) for level in self.scalar_levels
        }
        p_values = {
            name: token.wme_at(level).get(attribute)
            for name, level, attribute in self.p_specs
        }
        agg_states = [AggregateState(spec) for spec in self.agg_specs]
        return SetOrientedInstance(key, key_wmes, p_values, agg_states)

    def _touch(self, soi):
        if self.journal is None:
            soi.bump()
        elif soi not in self.journal:
            self.journal[soi] = (soi.status, soi.head())

    def add(self, token):
        """Place an arriving token; returns ``(soi, chg)``."""
        key = self._key_of(token)
        soi = self.sois.get(key)
        if soi is None:
            soi = self.sois[key] = self._new_soi(key, token)
            self._touch(soi)
            soi.insert_token(token)
            chg = CHG_NEW
        else:
            self._touch(soi)
            at_head = soi.insert_token(token)
            chg = CHG_NEW_TIME if at_head else CHG_SAME_TIME
        for state in soi.agg_states:
            state.add_token(token)
        return soi, chg

    def soi_of(self, token):
        """The SOI *token* belongs in, or None when it is not here."""
        return self.sois.get(self._key_of(token))

    def remove(self, token):
        """Take a departing token out; returns ``(soi, chg)``, or None
        when its SOI is not here.  An emptied SOI (``chg`` delete)
        leaves γ-memory at once, so a later same-key arrival builds a
        fresh one — the delete-then-recreate a per-event replay of a
        batch would produce."""
        soi = self.soi_of(token)
        return None if soi is None else self.take(soi, token)

    def take(self, soi, token):
        """Take departing *token* out of its *soi*; ``(soi, chg)``."""
        self._touch(soi)
        was_head = soi.remove_token(token)
        if not len(soi):
            del self.sois[soi.key]
            return soi, CHG_DELETE
        for state in soi.agg_states:
            state.remove_token(token)
        return soi, CHG_NEW_TIME if was_head else CHG_SAME_TIME

    def evict(self, soi):
        """Drop *soi*, all of whose tokens are leaving, from γ-memory
        whole: no per-token bisect, no aggregate fold."""
        self._touch(soi)
        del self.sois[soi.key]
        soi._tokens, soi._keys = [], []
        soi.digest = 0

    def passes(self, soi):
        """Does *soi* satisfy ``:test`` (true when there is none)?"""
        return self.test is None or _is_truthy(
            evaluate(self.test, _TestResolver(self, soi))
        )


class SNode:
    """The S-node proper: a γ-memory plus Figure 3's decide stage."""

    def __init__(self, rule, analysis, emit, strict_paper_decide=False,
                 stats=None):
        self.rule = rule
        self.memory = GammaMemory(rule, analysis)
        self.gamma = self.memory.sois
        self.emit = emit
        self.strict_paper_decide = strict_paper_decide
        self._token_total = 0
        # Batched propagation: while _batch_depth > 0 the γ-memory
        # journals each touched SOI's pre-batch image and token arrivals
        # skip test evaluation and decide-flow; flush_batch() runs them
        # once per touched SOI.
        self._batch_depth = 0
        # Staged departures (SOI -> leaving tokens), batched mode only.
        self._departing = {}
        self.attach_stats(stats if stats is not None else NULL_STATS)

    def attach_stats(self, stats):
        self.stats = stats
        self.stats_key = stats.register_node("snode", self.rule.name)

    # -- observer protocol (terminal node) --------------------------------

    def token_added(self, token):
        if self._departing:
            self._settle_departures()
        soi, chg = self.memory.add(token)
        self._token_total += 1
        if not self._batch_depth:
            self._settle(soi, chg)

    def token_removed(self, token):
        if self._batch_depth:
            soi = self.memory.soi_of(token)
            if soi is not None:
                self._departing.setdefault(soi, []).append(token)
            return
        placed = self.memory.remove(token)
        if placed is None:
            return
        self._token_total -= 1
        self._settle(*placed)

    def _settle_departures(self):
        """Settle staged departures: evict an SOI they all leave."""
        departing, self._departing = self._departing, {}
        memory = self.memory
        for soi, tokens in departing.items():
            self._token_total -= len(tokens)
            if len(tokens) == len(soi):
                memory.evict(soi)
            else:
                for token in tokens:
                    memory.take(soi, token)

    def _settle(self, soi, chg):
        """Per-event Figure 3: re-evaluate the test, decide the flow."""
        if chg != CHG_DELETE and not self.memory.passes(soi):
            chg = CHG_FAIL
        self._decide(soi, chg)
        if self.stats.enabled:
            self.stats.gamma_size(
                self.stats_key, len(self.gamma), self._token_total
            )

    # -- batched propagation ----------------------------------------------

    def begin_batch(self):
        """Enter staged mode: defer decide-flow until :meth:`flush_batch`."""
        self._batch_depth += 1
        if self.memory.journal is None:
            self.memory.journal = {}

    def flush_batch(self):
        """Leave staged mode: run test + decide once per touched SOI.

        The per-SOI outcome is computed from the pre-batch image and
        the post-batch state, reproducing what a per-event replay of
        the net delta-set would leave behind: status, membership, and
        a single ``+``/``-``/``time`` mark (the version is bumped once,
        which is refire-equivalent to the replay's k bumps).
        """
        self._batch_depth -= 1
        if self._batch_depth > 0:
            return
        self._settle_departures()
        staged, self.memory.journal = self.memory.journal, None
        reevals = 0
        for soi, (status0, head0) in staged.items():
            soi.bump()
            if not len(soi):
                # Emptied (and already evicted from γ-memory).
                if status0 == ACTIVE:
                    self._send(MARK_REMOVE, soi)
                continue
            if self.memory.test is not None:
                reevals += 1
            if self.memory.passes(soi):
                if status0 == ACTIVE:
                    if soi.head() is not head0:
                        self._send(MARK_TIME, soi)
                else:
                    soi.status = ACTIVE
                    self._send(MARK_ADD, soi)
            elif status0 == ACTIVE:
                soi.status = INACTIVE
                self._send(MARK_REMOVE, soi)
        if self.stats.enabled and staged:
            self.stats.snode_batch(self.stats_key, len(staged), reevals)
            self.stats.gamma_size(
                self.stats_key, len(self.gamma), self._token_total
            )

    def _send(self, kind, soi):
        """Forward one mark to the P-node, counting it by kind."""
        self.stats.snode_mark(self.stats_key, kind)
        self.emit(kind, soi)

    def _decide(self, soi, chg):
        if chg == CHG_NEW:
            soi.status = ACTIVE
            self._send(MARK_ADD, soi)
        elif chg == CHG_DELETE:
            if soi.status == ACTIVE:
                self._send(MARK_REMOVE, soi)
        elif chg == CHG_FAIL:
            if soi.status == ACTIVE:
                soi.status = INACTIVE
                self._send(MARK_REMOVE, soi)
        elif chg == CHG_NEW_TIME:
            if soi.status == ACTIVE:
                self._send(MARK_TIME, soi)
            else:
                soi.status = ACTIVE
                self._send(MARK_ADD, soi)
        elif chg == CHG_SAME_TIME:
            if soi.status == INACTIVE and not self.strict_paper_decide:
                # Amendment: the test just flipped true on a non-head
                # change; Figure 3 as printed would leave the SOI out of
                # the conflict set forever.
                soi.status = ACTIVE
                self._send(MARK_ADD, soi)

    # -- inspection ---------------------------------------------------------

    def gamma_memory(self):
        """The γ-memory as the paper describes it: list of triples."""
        return [soi.gamma_entry() for soi in self.gamma.values()]

    def static_data(self):
        """The paper's five-tuple (C, P, APVs, ACEs, T).

        APVs/ACEs are the aggregates of ``:test``; what γ-memory keeps
        for the RHS alone is extra state, not part of the tuple.
        """
        memory = self.memory
        tested = [s for s in memory.agg_specs if "test" in s.readers]
        return (
            memory.scalar_levels,
            tuple(name for name, _, _ in memory.p_specs),
            tuple(s for s in tested if s.kind == "pv"),
            tuple(s for s in tested if s.kind == "ce"),
            memory.test,
        )

    def __repr__(self):
        return f"SNode({self.rule.name}, {len(self.gamma)} SOIs)"


def build_aggregate_specs(rule, analysis):
    """The aggregates γ-memory maintains for *rule*, ``:test``'s first.

    Collected from ``:test`` and from the RHS expressions evaluated
    outside any ``foreach`` (inside one the aggregate ranges over a
    narrowed group, which is not maintained), one spec per distinct
    ``(op, target, attribute)``; ``spec.readers`` says which half reads
    it.  A ``:test`` aggregate that cannot be specified raises; an RHS
    one is left out, so it fails when the rule fires, under the rule's
    error policy, and never at ``add_rule``.
    """
    set_element_vars = {
        name: level for name, level in rule.element_vars().items()
        if rule.ces[level].set_oriented
    }
    sources = [("rhs", expression)
               for expression in ast.top_level_expressions(rule.actions)]
    if rule.test is not None:
        sources.insert(0, ("test", rule.test))
    specs = {}
    for reader, expression in sources:
        for node in ast.walk_aggregates(expression):
            identity = (node.op, node.target, node.attribute)
            spec = specs.get(identity)
            if spec is None:
                try:
                    spec = specs[identity] = AggregateSpec.for_node(
                        node, rule.name, set_element_vars,
                        analysis.set_variable_sites,
                    )
                except EngineError:
                    if reader == "test":
                        raise
                    continue
            if reader not in spec.readers:
                spec.readers += (reader,)
    return list(specs.values())
