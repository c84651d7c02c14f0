"""Static analysis of rules: binding sites and match tests.

Every matcher (Rete, naive, DIPS) needs the same decomposition of a
rule's LHS:

* **constant tests** — checks against literals/disjunctions, evaluable
  on a lone WME (they parameterise the alpha network);
* **intra-CE tests** — two occurrences of one variable inside the same
  CE, also evaluable on a lone WME;
* **join tests** — a variable occurrence whose *binding site* lies in an
  earlier CE, evaluated between the candidate WME and a partial match;
* **binding sites** — for each pattern variable, the first ``=``
  occurrence in a non-negated CE (``(level, attribute)``); the RHS
  executor reads scalar values and set domains through these.

The analysis also validates OPS5 binding discipline: a variable must be
bound (``=`` in a positive CE) before it is used with another predicate
or in a later CE; variables bound only inside a negated CE stay local to
it.
"""

from __future__ import annotations

from repro import symbols
from repro.errors import RuleError
from repro.lang import ast


class ConstantCheck:
    """A check against a literal value or disjunction, local to one WME."""

    __slots__ = ("attribute", "predicate", "operand")

    def __init__(self, attribute, predicate, operand):
        self.attribute = attribute
        self.predicate = predicate
        self.operand = operand  # a raw value or tuple of values (disjunction)

    def matches(self, wme):
        value = wme.get(self.attribute)
        if isinstance(self.operand, tuple):
            return any(
                symbols.values_equal(value, candidate)
                for candidate in self.operand
            )
        return symbols.apply_predicate(self.predicate, value, self.operand)

    def key(self):
        return ("const", self.attribute, self.predicate, self.operand)

    def __repr__(self):
        return f"ConstantCheck(^{self.attribute} {self.predicate} {self.operand!r})"


class IntraTest:
    """Two attributes of the same WME compared to each other."""

    __slots__ = ("attribute", "predicate", "other_attribute")

    def __init__(self, attribute, predicate, other_attribute):
        self.attribute = attribute
        self.predicate = predicate
        self.other_attribute = other_attribute

    def matches(self, wme):
        return symbols.apply_predicate(
            self.predicate,
            wme.get(self.attribute),
            wme.get(self.other_attribute),
        )

    def key(self):
        return ("intra", self.attribute, self.predicate, self.other_attribute)

    def __repr__(self):
        return (
            f"IntraTest(^{self.attribute} {self.predicate} "
            f"^{self.other_attribute})"
        )


class JoinTest:
    """Candidate WME attribute compared against an earlier binding site."""

    __slots__ = ("attribute", "predicate", "bound_level", "bound_attribute")

    def __init__(self, attribute, predicate, bound_level, bound_attribute):
        self.attribute = attribute
        self.predicate = predicate
        self.bound_level = bound_level
        self.bound_attribute = bound_attribute

    def matches(self, wme, lookup):
        """*lookup(level, attribute)* resolves the bound value."""
        bound = lookup(self.bound_level, self.bound_attribute)
        return symbols.apply_predicate(
            self.predicate, wme.get(self.attribute), bound
        )

    def key(self):
        return (
            "join",
            self.attribute,
            self.predicate,
            self.bound_level,
            self.bound_attribute,
        )

    def __repr__(self):
        return (
            f"JoinTest(^{self.attribute} {self.predicate} "
            f"ce{self.bound_level}.^{self.bound_attribute})"
        )


class CEAnalysis:
    """The decomposed tests of one condition element."""

    __slots__ = (
        "level",
        "ce",
        "constant_checks",
        "intra_tests",
        "join_tests",
    )

    def __init__(self, level, ce, constant_checks, intra_tests, join_tests):
        self.level = level
        self.ce = ce
        self.constant_checks = tuple(constant_checks)
        self.intra_tests = tuple(intra_tests)
        self.join_tests = tuple(join_tests)

    def alpha_key(self):
        """Key identifying this CE's alpha memory (enables sharing)."""
        local = tuple(
            sorted(
                [check.key() for check in self.constant_checks]
                + [test.key() for test in self.intra_tests]
            )
        )
        return (self.ce.wme_class,) + local

    def wme_passes_alpha(self, wme):
        """True when *wme* satisfies class + constant + intra tests."""
        if wme.wme_class != self.ce.wme_class:
            return False
        return all(
            check.matches(wme) for check in self.constant_checks
        ) and all(test.matches(wme) for test in self.intra_tests)

    def wme_passes_joins(self, wme, lookup):
        """True when *wme* satisfies every join test against *lookup*."""
        return all(test.matches(wme, lookup) for test in self.join_tests)


class RuleAnalysis:
    """Full static analysis of one rule."""

    def __init__(self, rule):
        self.rule = rule
        self.binding_sites = {}
        self.ce_analyses = []
        self._analyse()
        self.set_variable_sites = {
            name: self.binding_sites[name]
            for name in rule.set_variables()
            if name in self.binding_sites
        }
        self.scalar_ce_levels = tuple(
            index
            for index, ce in enumerate(rule.ces)
            if not ce.set_oriented and not ce.negated
        )
        self.set_ce_levels = tuple(
            index for index, ce in enumerate(rule.ces) if ce.set_oriented
        )

    # -- construction ------------------------------------------------------

    def _analyse(self):
        rule = self.rule
        for level, ce in enumerate(rule.ces):
            constant_checks = []
            intra_tests = []
            join_tests = []
            local_sites = {}
            for test in ce.tests:
                for check in test.checks:
                    self._classify_check(
                        level,
                        ce,
                        test.attribute,
                        check,
                        constant_checks,
                        intra_tests,
                        join_tests,
                        local_sites,
                    )
            if not ce.negated:
                for name, attribute in local_sites.items():
                    if name not in self.binding_sites:
                        self.binding_sites[name] = (level, attribute)
            self.ce_analyses.append(
                CEAnalysis(level, ce, constant_checks, intra_tests, join_tests)
            )
        self._validate_rhs_variables()

    def _classify_check(
        self,
        level,
        ce,
        attribute,
        check,
        constant_checks,
        intra_tests,
        join_tests,
        local_sites,
    ):
        operand = check.operand
        if isinstance(operand, ast.Const):
            constant_checks.append(
                ConstantCheck(attribute, check.predicate, operand.value)
            )
            return
        if isinstance(operand, ast.Disjunction):
            constant_checks.append(
                ConstantCheck(attribute, "=", tuple(operand.values))
            )
            return
        # A variable occurrence.
        name = operand.name
        if name in local_sites:
            intra_tests.append(
                IntraTest(attribute, check.predicate, local_sites[name])
            )
            return
        if name in self.binding_sites:
            bound_level, bound_attribute = self.binding_sites[name]
            join_tests.append(
                JoinTest(
                    attribute, check.predicate, bound_level, bound_attribute
                )
            )
            # A second '=' site in this CE also lets later local uses
            # compare against this attribute directly.
            if check.predicate == "=":
                local_sites.setdefault(name, attribute)
            return
        # First occurrence anywhere.
        if check.predicate != "=":
            raise RuleError(
                f"rule {self.rule.name}: variable <{name}> used with "
                f"'{check.predicate}' before being bound"
            )
        local_sites[name] = attribute

    def _validate_rhs_variables(self):
        """Negated-CE-local variables must not leak into later CEs/RHS."""
        rule = self.rule
        for level, ce in enumerate(rule.ces):
            if not ce.negated:
                continue
            for name in ce.variables():
                if name in self.binding_sites:
                    continue
                # Bound only inside negated CEs: any use elsewhere is an
                # error.  Later CEs would have raised "used before bound"
                # already (their first sight has no site), unless they
                # bind it themselves, which is fine.  Check the RHS.
                if self._rhs_mentions(name):
                    raise RuleError(
                        f"rule {rule.name}: variable <{name}> is bound only "
                        f"inside a negated CE and cannot be used on the RHS"
                    )

    def _rhs_mentions(self, name):
        element_vars = set(self.rule.element_vars())
        bound_names = set()
        for action in ast.walk_actions(self.rule.actions):
            if isinstance(action, ast.BindAction):
                bound_names.add(action.name)
            for expression in ast.action_expressions(action):
                for node in ast.walk_expr(expression):
                    if isinstance(node, ast.Var) and node.name == name:
                        if name in element_vars or name in bound_names:
                            continue
                        return True
        return False

    # -- runtime helpers -----------------------------------------------------

    def variable_value(self, name, wme_at):
        """Resolve a scalar variable via its binding site.

        *wme_at(level)* returns the WME filling a CE slot.
        """
        site = self.binding_sites.get(name)
        if site is None:
            raise RuleError(
                f"rule {self.rule.name}: no binding site for <{name}>"
            )
        level, attribute = site
        wme = wme_at(level)
        if wme is None:
            raise RuleError(
                f"rule {self.rule.name}: <{name}> is bound at negated "
                f"CE {level + 1}"
            )
        return wme.get(attribute)
