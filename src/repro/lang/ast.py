"""Abstract syntax for rules, condition elements, tests, and RHS actions.

The AST is deliberately plain: small classes with ``__slots__``, value
equality, and informative reprs.  The Rete compiler
(:mod:`repro.rete.network`), the RHS executor (:mod:`repro.engine.rhs`),
and the DIPS compiler (:mod:`repro.dips`) all consume these nodes.

Terminology (paper section 4):

* a *condition element* (CE) matches WMEs of one class; a CE written
  with square brackets is **set-oriented**;
* a *pattern variable* (PV) such as ``<n>`` is set-oriented when it
  occurs only in set-oriented CEs and is not listed in ``:scalar``;
* an *element variable* binds a whole CE match
  (``{ (player ...) <P> }``): a single WME for a regular CE, the matched
  WME set for a set-oriented CE.
"""

from __future__ import annotations

from repro import symbols
from repro.errors import RuleError

#: Aggregate operators accepted on the LHS/RHS (paper section 4.2).
AGGREGATE_OPS = ("count", "min", "max", "sum", "avg")

#: Orders accepted by ``foreach`` (paper section 6).
FOREACH_ORDERS = ("default", "ascending", "descending")


class _Node:
    """Shared value-equality plumbing for AST nodes."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__,) + self._fields())

    def __repr__(self):
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({inner})"


# ---------------------------------------------------------------------------
# Expressions (used in :test clauses, RHS value positions, if conditions)
# ---------------------------------------------------------------------------


class Expr(_Node):
    """Base class for expression nodes."""

    __slots__ = ()


class Const(Expr):
    """A literal symbol or number."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not symbols.is_value(value):
            raise RuleError(f"constant must be a symbol or number: {value!r}")
        self.value = value


class Var(Expr):
    """A reference to a pattern variable or element variable, ``<name>``."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Aggregate(Expr):
    """An aggregate over a set-oriented variable, e.g. ``(count <P>)``.

    ``op`` is one of :data:`AGGREGATE_OPS`; ``target`` names either a
    set-oriented PV (aggregate over its value domain) or a set-oriented
    CE's element variable (aggregate over the matched WME set, meaningful
    for ``count``; for the numeric aggregates over an element variable a
    paired attribute is required, supplied as ``attribute``).
    """

    __slots__ = ("op", "target", "attribute")

    def __init__(self, op, target, attribute=None):
        if op not in AGGREGATE_OPS:
            raise RuleError(
                f"unknown aggregate {op!r}; expected one of "
                f"{', '.join(AGGREGATE_OPS)}"
            )
        self.op = op
        self.target = target
        self.attribute = attribute


class BinOp(Expr):
    """An infix binary operation.

    Comparison ops: ``== != < <= > >=``; arithmetic: ``+ - * / // mod``;
    boolean: ``and or``.
    """

    __slots__ = ("op", "left", "right")

    COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
    ARITHMETIC = ("+", "-", "*", "/", "//", "mod")
    BOOLEAN = ("and", "or")

    def __init__(self, op, left, right):
        if op not in self.COMPARISONS + self.ARITHMETIC + self.BOOLEAN:
            raise RuleError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Expr):
    """``not`` or numeric negation."""

    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        if op not in ("not", "-"):
            raise RuleError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand


# ---------------------------------------------------------------------------
# LHS: value checks, attribute tests, condition elements
# ---------------------------------------------------------------------------


class Disjunction(_Node):
    """A ``<< a b c >>`` disjunction of constant values."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)


class Check(_Node):
    """One predicate applied to an attribute's value.

    ``operand`` is a :class:`Const`, :class:`Var`, or
    :class:`Disjunction` (the latter only with predicate ``=``).
    """

    __slots__ = ("predicate", "operand")

    def __init__(self, predicate, operand):
        if predicate not in symbols.PREDICATES:
            raise RuleError(f"unknown predicate {predicate!r}")
        if isinstance(operand, Disjunction) and predicate != "=":
            raise RuleError("a << >> disjunction only combines with '='")
        self.predicate = predicate
        self.operand = operand

    @property
    def is_constant(self):
        """True when this check needs no variable bindings to evaluate."""
        return isinstance(self.operand, (Const, Disjunction))


class AttrTest(_Node):
    """All checks a CE applies to one attribute (conjunction)."""

    __slots__ = ("attribute", "checks")

    def __init__(self, attribute, checks):
        self.attribute = attribute
        self.checks = tuple(checks)


class ConditionElement(_Node):
    """One LHS condition element.

    ``set_oriented`` distinguishes ``[...]`` from ``(...)``;
    ``negated`` marks ``-(...)`` absence tests (negated set-oriented CEs
    are rejected — a negation already quantifies over all matches);
    ``element_var`` holds the name bound by ``{ ce <Var> }``, or None.
    """

    __slots__ = ("wme_class", "tests", "set_oriented", "negated", "element_var")

    def __init__(self, wme_class, tests, set_oriented=False, negated=False,
                 element_var=None):
        if negated and set_oriented:
            raise RuleError(
                "a negated CE cannot be set-oriented: negation already "
                "quantifies over every match"
            )
        if negated and element_var is not None:
            raise RuleError("a negated CE cannot bind an element variable")
        self.wme_class = wme_class
        self.tests = tuple(tests)
        self.set_oriented = set_oriented
        self.negated = negated
        self.element_var = element_var

    def variables(self):
        """Names of pattern variables this CE mentions, in order."""
        names = []
        for test in self.tests:
            for check in test.checks:
                if isinstance(check.operand, Var):
                    if check.operand.name not in names:
                        names.append(check.operand.name)
        return names

    def attribute_of_variable(self, name):
        """The first attribute bound to PV *name* by an ``=`` check, or None."""
        for test in self.tests:
            for check in test.checks:
                if (
                    check.predicate == "="
                    and isinstance(check.operand, Var)
                    and check.operand.name == name
                ):
                    return test.attribute
        return None

    def constant_tests(self):
        """(attribute, check) pairs evaluable without bindings."""
        pairs = []
        for test in self.tests:
            for check in test.checks:
                if check.is_constant:
                    pairs.append((test.attribute, check))
        return pairs

    def variable_tests(self):
        """(attribute, check) pairs that reference pattern variables."""
        pairs = []
        for test in self.tests:
            for check in test.checks:
                if not check.is_constant:
                    pairs.append((test.attribute, check))
        return pairs


# ---------------------------------------------------------------------------
# RHS actions
# ---------------------------------------------------------------------------


class Action(_Node):
    """Base class for RHS actions."""

    __slots__ = ()


class MakeAction(Action):
    """``(make class ^attr expr ...)``."""

    __slots__ = ("wme_class", "assignments")

    def __init__(self, wme_class, assignments):
        self.wme_class = wme_class
        self.assignments = tuple(assignments)


class RemoveAction(Action):
    """``(remove target)`` — target is a CE ordinal (1-based) or element var."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target


class ModifyAction(Action):
    """``(modify target ^attr expr ...)``."""

    __slots__ = ("target", "assignments")

    def __init__(self, target, assignments):
        self.target = target
        self.assignments = tuple(assignments)


class WriteAction(Action):
    """``(write expr ...)`` — collects rendered values onto the trace."""

    __slots__ = ("arguments",)

    def __init__(self, arguments):
        self.arguments = tuple(arguments)


class BindAction(Action):
    """``(bind <var> expr)`` — RHS-local variable binding."""

    __slots__ = ("name", "expression")

    def __init__(self, name, expression):
        self.name = name
        self.expression = expression


class HaltAction(Action):
    """``(halt)`` — stop the recognize-act cycle after this firing."""

    __slots__ = ()


class CallAction(Action):
    """``(call name expr ...)`` — invoke a registered host function.

    OPS5's external-routine escape hatch: the engine maps *name* to a
    Python callable (see :meth:`repro.engine.engine.RuleEngine.
    register_function`); evaluated arguments are passed positionally.
    """

    __slots__ = ("name", "arguments")

    def __init__(self, name, arguments):
        self.name = name
        self.arguments = tuple(arguments)


class SetModifyAction(Action):
    """``(set-modify <ElemVar> ^attr expr ...)`` — modify every member WME.

    The paper's section 6: applies one modification uniformly to the
    entire matched set bound to a set-oriented CE's element variable
    (narrowed to the current subinstantiation inside ``foreach``).
    """

    __slots__ = ("target", "assignments")

    def __init__(self, target, assignments):
        self.target = target
        self.assignments = tuple(assignments)


class SetRemoveAction(Action):
    """``(set-remove <ElemVar>)`` — remove every member WME of the set."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target


class ForeachAction(Action):
    """``(foreach <var> [ascending|descending] action ...)``.

    Iterates the distinct values of a set-oriented PV (value grouping) or
    the member WMEs of a set-oriented CE's element variable (per time
    tag), narrowing the subinstantiation compositionally (paper §6.1/6.2).
    ``default`` order follows conflict-set ordering of the would-be
    separate instantiations.
    """

    __slots__ = ("variable", "order", "body")

    def __init__(self, variable, body, order="default"):
        if order not in FOREACH_ORDERS:
            raise RuleError(
                f"foreach order must be one of {FOREACH_ORDERS}, got {order!r}"
            )
        self.variable = variable
        self.order = order
        self.body = tuple(body)


class IfAction(Action):
    """``(if (cond) action... else action...)`` — C5-style RHS conditional."""

    __slots__ = ("condition", "then_body", "else_body")

    def __init__(self, condition, then_body, else_body=()):
        self.condition = condition
        self.then_body = tuple(then_body)
        self.else_body = tuple(else_body)


# ---------------------------------------------------------------------------
# The rule
# ---------------------------------------------------------------------------


class Rule(_Node):
    """A production: name, LHS CEs, scalar clause, test clause, RHS actions."""

    __slots__ = ("name", "ces", "scalar_vars", "test", "actions")

    def __init__(self, name, ces, actions, scalar_vars=(), test=None):
        if not ces:
            raise RuleError(f"rule {name}: LHS must have at least one CE")
        positives = [ce for ce in ces if not ce.negated]
        if not positives:
            raise RuleError(
                f"rule {name}: LHS needs at least one non-negated CE"
            )
        self.name = name
        self.ces = tuple(ces)
        self.actions = tuple(actions)
        self.scalar_vars = tuple(scalar_vars)
        self.test = test
        self._validate()

    # -- derived structure ------------------------------------------------

    @property
    def is_set_oriented(self):
        """True when any CE is set-oriented (the rule compiles to an S-node)."""
        return any(ce.set_oriented for ce in self.ces)

    def positive_ces(self):
        """The non-negated CEs, in LHS order."""
        return [ce for ce in self.ces if not ce.negated]

    def set_ces(self):
        return [ce for ce in self.ces if ce.set_oriented]

    def regular_ces(self):
        return [ce for ce in self.ces if not ce.set_oriented and not ce.negated]

    def variable_occurrences(self):
        """Map PV name -> list of (ce_index, set_oriented) occurrences."""
        occurrences = {}
        for index, ce in enumerate(self.ces):
            for name in ce.variables():
                occurrences.setdefault(name, []).append(
                    (index, ce.set_oriented)
                )
        return occurrences

    def set_variables(self):
        """PVs that are set-oriented under the paper's section 4.1 rules.

        A PV is set-oriented iff it occurs *only* in set-oriented CEs and
        is not named in the ``:scalar`` clause.  Occurring in any regular
        (or negated) CE forces a scalar binding.
        """
        result = []
        for name, occs in self.variable_occurrences().items():
            if name in self.scalar_vars:
                continue
            if all(is_set for _, is_set in occs):
                result.append(name)
        return result

    def scalar_variables(self):
        """PVs with scalar bindings (regular-CE occurrences or :scalar)."""
        return [
            name
            for name in self.variable_occurrences()
            if name not in self.set_variables()
        ]

    def element_vars(self):
        """Map element-variable name -> CE index."""
        return {
            ce.element_var: index
            for index, ce in enumerate(self.ces)
            if ce.element_var is not None
        }

    def specificity(self):
        """LEX specificity: number of attribute checks + class tests."""
        total = 0
        for ce in self.ces:
            total += 1  # the class test
            for test in ce.tests:
                total += len(test.checks)
        return total

    # -- validation ---------------------------------------------------------

    def _validate(self):
        occurrences = self.variable_occurrences()
        element_vars = self.element_vars()
        for name in self.scalar_vars:
            if name not in occurrences:
                raise RuleError(
                    f"rule {self.name}: :scalar names unknown variable "
                    f"<{name}>"
                )
            if not all(is_set for _, is_set in occurrences[name]):
                # :scalar on an already-scalar PV is redundant but harmless;
                # OPS5 tradition tolerates it, we do too.
                pass
        overlap = set(occurrences) & set(element_vars)
        if overlap:
            raise RuleError(
                f"rule {self.name}: name(s) {sorted(overlap)} used both as "
                f"pattern variable and element variable"
            )
        if self.test is not None and not self.is_set_oriented:
            raise RuleError(
                f"rule {self.name}: :test requires at least one "
                f"set-oriented CE"
            )
        self._validate_test_targets(element_vars)

    def _validate_test_targets(self, element_vars):
        if self.test is None:
            return
        set_vars = set(self.set_variables())
        set_elem_vars = {
            name
            for name, index in element_vars.items()
            if self.ces[index].set_oriented
        }
        for aggregate in walk_aggregates(self.test):
            target = aggregate.target
            if target in set_vars or target in set_elem_vars:
                continue
            raise RuleError(
                f"rule {self.name}: aggregate ({aggregate.op} <{target}>) "
                f"must target a set-oriented variable"
            )


def walk_expr(expr):
    """Yield *expr* and every sub-expression, depth first."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)


def walk_aggregates(expr):
    """Yield every :class:`Aggregate` node inside *expr*."""
    for node in walk_expr(expr):
        if isinstance(node, Aggregate):
            yield node


def walk_actions(actions):
    """Yield every action in *actions*, descending into foreach/if bodies."""
    for action in actions:
        yield action
        if isinstance(action, ForeachAction):
            yield from walk_actions(action.body)
        elif isinstance(action, IfAction):
            yield from walk_actions(action.then_body)
            yield from walk_actions(action.else_body)


def action_expressions(action):
    """The expression operands *action* itself evaluates (not its body's)."""
    if isinstance(action, (MakeAction, ModifyAction, SetModifyAction)):
        return [expression for _, expression in action.assignments]
    if isinstance(action, (WriteAction, CallAction)):
        return list(action.arguments)
    if isinstance(action, BindAction):
        return [action.expression]
    if isinstance(action, IfAction):
        return [action.condition]
    return []


def top_level_expressions(actions):
    """Yield every expression the RHS evaluates outside a ``foreach``.

    These see the whole instantiation; a ``foreach`` body sees one
    narrowed group at a time, so its expressions are not yielded.
    ``if`` bodies are descended into.
    """
    for action in actions:
        yield from action_expressions(action)
        if isinstance(action, IfAction):
            yield from top_level_expressions(action.then_body)
            yield from top_level_expressions(action.else_body)
