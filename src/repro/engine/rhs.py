"""The RHS executor: classic OPS5 actions plus the set-oriented ones.

A firing executes against a fire-time *snapshot* of the instantiation's
relation (its tokens), so RHS actions that mutate working memory do not
disturb the iteration in progress; aggregates over the whole relation
are read from γ-memory, which an atomic firing cannot move either.  The
executor maintains:

* **bind frames** — ``(bind <v> expr)`` assigns in the nearest enclosing
  frame already defining ``<v>``, else the current frame; ``foreach``
  bodies push/pop frames, giving the scoping both of the paper's
  ``RemoveDups`` (a flag bound before the loop and flipped inside it)
  and ``AlternativeRemoveDups`` (a flag re-initialised per iteration);
* **narrowing frames** — each ``foreach`` iteration restricts the
  current subinstantiation (paper §6: "each iterator acts to reduce the
  size of the subinstantiation further by performing a selection") and
  fixes iterator variables as scalars; for iteration over a set CE, all
  PVs referenced in that CE become regular PVs bound through the
  current member WME (§6.2).
"""

from __future__ import annotations

from repro import symbols
from repro.errors import EngineError
from repro.core.expr import evaluate, is_truthy
from repro.lang import ast
from repro.rete.aggregates import AggregateSpec, AggregateState


class _Narrow:
    """One foreach level: restricted tokens + scalars it fixes."""

    __slots__ = ("tokens", "fixed_values", "fixed_wmes")

    def __init__(self, tokens, fixed_values, fixed_wmes):
        self.tokens = tokens
        self.fixed_values = fixed_values  # var name -> scalar value
        self.fixed_wmes = fixed_wmes  # CE level -> single WME


class RhsExecutor:
    """Executes one rule firing, and is the resolver its expressions
    evaluate against (:meth:`var`, :meth:`aggregate`).

    Nothing the executor holds refers back to it, so a firing, its
    instantiation and the members a set action retracted are freed by
    reference counting as soon as the firing returns: a firing leaves
    no cycle for the collector.
    """

    def __init__(self, engine, rule, analysis, instantiation, record):
        self.engine = engine
        self.rule = rule
        self.analysis = analysis
        self.instantiation = instantiation
        self.record = record
        self.tokens = instantiation.tokens()  # fire-time snapshot
        self.frames = [{}]
        self.narrows = []
        self.element_vars = rule.element_vars()
        # Index path of the action being dispatched, outermost block
        # first; left at the failure point when the RHS raises, so
        # FiringError can name the poison action.
        self.action_path = ()

    # -- scope helpers -----------------------------------------------------

    def current_tokens(self):
        if self.narrows:
            return self.narrows[-1].tokens
        return self.tokens

    def _error(self, message):
        raise EngineError(f"rule {self.rule.name}: {message}")

    def var(self, name):
        """Resolve ``<name>`` through binds, narrows, then the match."""
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        for narrow in reversed(self.narrows):
            if name in narrow.fixed_values:
                return narrow.fixed_values[name]
        if not self.instantiation.is_set_oriented:
            return self.analysis.variable_value(
                name, self.instantiation.wme_at
            )
        return self._soi_value_of(name)

    def _soi_value_of(self, name):
        soi = self.instantiation
        site = self.analysis.binding_sites.get(name)
        if site is None:
            self._error(f"<{name}> is not bound")
        level, attribute = site
        if level in self.analysis.scalar_ce_levels:
            wme = soi.wme_at(level)
            return wme.get(attribute)
        if self._is_partition_var(name):
            return soi.p_value(name)
        # A set-oriented PV: scalar only when its current domain is a
        # singleton (e.g. inside a foreach that narrowed it, §6.2).
        domain = self.domain_of(name)
        if len(domain) == 1:
            return domain[0]
        self._error(
            f"set-oriented <{name}> used as a scalar while its domain "
            f"has {len(domain)} values (iterate it with foreach)"
        )

    def _is_partition_var(self, name):
        """Is *name* a ``:scalar`` variable sited in a set-oriented CE?"""
        if name not in self.rule.scalar_vars:
            return False
        site = self.analysis.binding_sites.get(name)
        return site is not None and self.rule.ces[site[0]].set_oriented

    def domain_of(self, name):
        """Distinct current-subinstantiation values of a set PV."""
        site = self.analysis.binding_sites.get(name)
        if site is None:
            self._error(f"<{name}> is not bound")
        level, attribute = site
        seen = {}
        for token in self.current_tokens():
            wme = token.wme_at(level)
            if wme is not None:
                seen.setdefault(wme.get(attribute), None)
        return list(seen)

    def members_of(self, level):
        """Distinct member WMEs of a set CE in the current narrowing."""
        for narrow in reversed(self.narrows):
            if level in narrow.fixed_wmes:
                return [narrow.fixed_wmes[level]]
        seen = {}
        for token in self.current_tokens():
            wme = token.wme_at(level)
            if wme is not None:
                seen.setdefault(wme, None)
        return list(seen)

    def single_wme(self, level):
        """The one WME at a CE level, for remove/modify targets."""
        if not self.instantiation.is_set_oriented:
            wme = self.instantiation.wme_at(level)
            if wme is None:
                self._error(
                    f"CE {level + 1} is negated and matches no element"
                )
            return wme
        if level in self.analysis.scalar_ce_levels:
            return self.instantiation.wme_at(level)
        members = self.members_of(level)
        if len(members) == 1:
            return members[0]
        self._error(
            f"CE {level + 1} is set-oriented with {len(members)} members; "
            f"use set-remove/set-modify or iterate with foreach"
        )

    def aggregate(self, node):
        """The value of an RHS aggregate over the current subinstantiation.

        Outside any ``foreach`` that is the whole SOI, whose aggregates
        γ-memory maintains (Figure 3): the state is read, not rebuilt.
        Firings are atomic — the WM changes of this RHS stay staged
        until it returns — so γ-memory cannot move under a running RHS
        and the live value is the fire-time snapshot's.  A ``sum`` or
        ``avg`` is read only while it is exact (see
        :meth:`AggregateState.is_exact`); otherwise, for an aggregate
        γ-memory does not keep, and inside a ``foreach`` (whose narrowed
        group nobody maintains) the state is folded afresh.
        """
        if not self.narrows and self.instantiation.is_set_oriented:
            state = self.instantiation.soi.aggregate_state(
                (node.op, node.target, node.attribute)
            )
            if state is not None and state.is_exact():
                return state.value()
        state = AggregateState(AggregateSpec.for_node(
            node, self.rule.name, self.element_vars,
            self.analysis.set_variable_sites,
        ))
        for token in self.current_tokens():
            state.add_token(token)
        return state.value()

    def _eval(self, expression):
        return evaluate(expression, self)

    # -- execution ------------------------------------------------------------

    def run(self):
        self._run_block(self.rule.actions)

    def _run_block(self, actions):
        base = self.action_path
        for index, action in enumerate(actions):
            self.action_path = base + (index,)
            self._dispatch(action)
        self.action_path = base

    def _dispatch(self, action):
        if isinstance(action, ast.MakeAction):
            self._do_make(action)
        elif isinstance(action, ast.RemoveAction):
            self._do_remove(action)
        elif isinstance(action, ast.ModifyAction):
            self._do_modify(action)
        elif isinstance(action, ast.WriteAction):
            self._do_write(action)
        elif isinstance(action, ast.BindAction):
            self._do_bind(action)
        elif isinstance(action, ast.HaltAction):
            self.engine.halt()
        elif isinstance(action, ast.CallAction):
            self._do_call(action)
        elif isinstance(action, ast.SetModifyAction):
            self._do_set_modify(action)
        elif isinstance(action, ast.SetRemoveAction):
            self._do_set_remove(action)
        elif isinstance(action, ast.ForeachAction):
            self._do_foreach(action)
        elif isinstance(action, ast.IfAction):
            self._do_if(action)
        else:
            self._error(f"unknown action {action!r}")

    # -- classic actions ---------------------------------------------------------

    def _do_make(self, action):
        values = {
            attribute: self._eval(expression)
            for attribute, expression in action.assignments
        }
        self.engine.wm.make(action.wme_class, **values)
        self.record.makes += 1
        self.record.touch("make")

    def _resolve_target(self, target):
        if isinstance(target, int):
            level = target - 1
            if not 0 <= level < len(self.rule.ces):
                self._error(f"no CE numbered {target}")
            return self.single_wme(level)
        if target in self.element_vars:
            return self.single_wme(self.element_vars[target])
        self._error(f"<{target}> is not an element variable")

    def _check_live(self, wme):
        if wme not in self.engine.wm:
            self._error(
                f"element {wme!r} is no longer in working memory "
                f"(already removed or modified this firing?)"
            )

    def _do_remove(self, action):
        wme = self._resolve_target(action.target)
        self._check_live(wme)
        self.engine.wm.remove(wme)
        self.record.removes += 1
        self.record.touch("remove", wme.time_tag)

    def _do_modify(self, action):
        wme = self._resolve_target(action.target)
        self._check_live(wme)
        updates = {
            attribute: self._eval(expression)
            for attribute, expression in action.assignments
        }
        replacement = self.engine.wm.modify(wme, **updates)
        self.record.modifies += 1
        self.record.touch("modify", wme.time_tag, replacement.time_tag)

    def _do_write(self, action):
        parts = [
            symbols.format_value(self._eval(argument))
            for argument in action.arguments
        ]
        self.engine.tracer.write(" ".join(parts))
        self.record.writes += 1

    def _do_call(self, action):
        function = self.engine.functions.get(action.name)
        if function is None:
            self._error(f"no registered function named {action.name!r}")
        arguments = [self._eval(arg) for arg in action.arguments]
        function(*arguments)

    def _do_bind(self, action):
        value = self._eval(action.expression)
        for frame in reversed(self.frames):
            if action.name in frame:
                frame[action.name] = value
                break
        else:
            self.frames[-1][action.name] = value
        self.record.binds += 1

    # -- set-oriented actions --------------------------------------------------

    def _set_level(self, target, action_name):
        level = self.element_vars.get(target)
        if level is None:
            self._error(f"{action_name} target <{target}> does not bind a CE")
        if not self.rule.ces[level].set_oriented:
            self._error(
                f"{action_name} target <{target}> binds a regular CE; "
                f"use modify/remove"
            )
        return level

    def _do_set_modify(self, action):
        level = self._set_level(action.target, "set-modify")
        updates = {
            attribute: self._eval(expression)
            for attribute, expression in action.assignments
        }
        members = self.members_of(level)
        for wme in members:
            self._check_live(wme)
        replacements = self.engine.wm.modify_all(members, updates)
        self.record.modifies += len(members)
        for wme, replacement in zip(members, replacements):
            self.record.touch("modify", wme.time_tag, replacement.time_tag)

    def _do_set_remove(self, action):
        level = self._set_level(action.target, "set-remove")
        members = self.members_of(level)
        for wme in members:
            self._check_live(wme)
        self.engine.wm.remove_all(members)
        self.record.removes += len(members)
        for wme in members:
            self.record.touch("remove", wme.time_tag)

    # -- foreach ------------------------------------------------------------------

    def _do_foreach(self, action):
        name = action.variable
        if name in self.element_vars:
            level = self.element_vars[name]
            if not self.rule.ces[level].set_oriented:
                self._error(
                    f"foreach <{name}> iterates a regular CE; nothing to "
                    f"iterate"
                )
            self._foreach_ce(action, level)
            return
        if name in self.analysis.set_variable_sites:
            self._foreach_pv(action)
            return
        self._error(f"foreach <{name}> must name a set-oriented variable")

    def _foreach_pv(self, action):
        """Iterate distinct values of a set PV (group-by-value, §6.1)."""
        level, attribute = self.analysis.set_variable_sites[action.variable]
        groups = {}
        for token in self.current_tokens():
            wme = token.wme_at(level)
            if wme is None:
                continue
            groups.setdefault(wme.get(attribute), []).append(token)
        ordered = self._order_groups(groups, action.order, value_keyed=True)
        for value in ordered:
            narrow = _Narrow(
                groups[value], {action.variable: value}, {}
            )
            self._run_narrowed(action.body, narrow)

    def _foreach_ce(self, action, level):
        """Iterate distinct member WMEs of a set CE (§6.2)."""
        groups = {}
        for token in self.current_tokens():
            wme = token.wme_at(level)
            if wme is not None:
                groups.setdefault(wme, []).append(token)
        ordered = self._order_groups(groups, action.order, value_keyed=False)
        ce = self.rule.ces[level]
        for wme in ordered:
            fixed_values = {}
            for var_name in ce.variables():
                attribute = ce.attribute_of_variable(var_name)
                if attribute is not None:
                    fixed_values[var_name] = wme.get(attribute)
            narrow = _Narrow(groups[wme], fixed_values, {level: wme})
            self._run_narrowed(action.body, narrow)

    def _order_groups(self, groups, order, value_keyed):
        """Order iteration keys per §6: value order or conflict-set order."""
        keys = list(groups)
        if order == "ascending":
            if value_keyed:
                return sorted(keys, key=symbols.sort_key)
            return sorted(keys, key=lambda wme: wme.time_tag)
        if order == "descending":
            if value_keyed:
                return sorted(keys, key=symbols.sort_key, reverse=True)
            return sorted(keys, key=lambda wme: wme.time_tag, reverse=True)
        # Default: the order the subinstantiations would have had in the
        # conflict set — dominant (most recent) group first.
        def group_recency(key):
            tags = []
            for token in groups[key]:
                tags.extend(token.time_tags())
            return tuple(sorted(tags, reverse=True))

        return sorted(keys, key=group_recency, reverse=True)

    def _run_narrowed(self, body, narrow):
        self.narrows.append(narrow)
        self.frames.append({})
        try:
            self._run_block(body)
        finally:
            self.frames.pop()
            self.narrows.pop()

    # -- if ---------------------------------------------------------------------

    def _do_if(self, action):
        if is_truthy(self._eval(action.condition)):
            self._run_block(action.then_body)
        else:
            self._run_block(action.else_body)
