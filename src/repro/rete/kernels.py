"""Compiled match predicates: how every Rete node tests a WME.

Each alpha memory and each join or negative node turns its test list
into one Python function when the node is built.  The function holds
its comparators and operands as locals, so matching a candidate pays
no string dispatch on the predicate and no generator, and a chain of
tests stops at the first one that fails.  There is one path: a node
always matches through these functions.

The builders:

* :func:`constant` — ``fn(value) -> bool`` for one constant test or
  disjunction;
* :func:`alpha` — ``fn(wme) -> bool`` for a CE's class, constant and
  intra-element tests (an alpha memory's admission predicate);
* :func:`join` — ``fn(wme, lookup) -> bool`` for a join-test list,
  run on each candidate of an index probe or right activation;
* :func:`scan` — ``fn(lookup, wmes) -> passing`` for a left activation
  that reads every WME of an alpha memory: the token's bound values
  are read once, then each candidate's attributes, in the memory's
  insertion order.

Every builder reads a WME's value as ``wme.row[wme.shape.get(attribute,
-1)]`` (see :class:`repro.wm.wme.WME`): a dict lookup and a tuple index,
no Python call per test.

The comparators reproduce OPS5's truth table
(:func:`repro.symbols.apply_predicate`): numbers compare by value
across ``int``/``float``, symbols by string equality, comparisons
across categories are false, and order predicates hold only between
two numbers.  DIPS tests its COND templates and residual blockers
with these builders too.  The ``matches`` methods of
:mod:`repro.analysis`, over ``apply_predicate``, are the one
interpretive implementation of CE tests, used by the naive matcher
alone, so the differential suites and ``tests/rete/test_kernels.py``
check these builders against an independent one.
"""

from __future__ import annotations

from repro.symbols import NUMBER_TYPES, is_number, same_type, values_equal


# -- comparators (pairwise, exact OPS5 semantics) -------------------------

def _cmp_ne(left, right):
    return not values_equal(left, right)


def _cmp_lt(left, right):
    return (isinstance(left, NUMBER_TYPES) and not isinstance(left, bool)
            and isinstance(right, NUMBER_TYPES)
            and not isinstance(right, bool) and left < right)


def _cmp_le(left, right):
    return (isinstance(left, NUMBER_TYPES) and not isinstance(left, bool)
            and isinstance(right, NUMBER_TYPES)
            and not isinstance(right, bool) and left <= right)


def _cmp_gt(left, right):
    return (isinstance(left, NUMBER_TYPES) and not isinstance(left, bool)
            and isinstance(right, NUMBER_TYPES)
            and not isinstance(right, bool) and left > right)


def _cmp_ge(left, right):
    return (isinstance(left, NUMBER_TYPES) and not isinstance(left, bool)
            and isinstance(right, NUMBER_TYPES)
            and not isinstance(right, bool) and left >= right)


#: Predicate token -> ``fn(left, right) -> bool``.
COMPARATORS = {
    "=": values_equal,
    "<>": _cmp_ne,
    "<=>": same_type,
    "<": _cmp_lt,
    "<=": _cmp_le,
    ">": _cmp_gt,
    ">=": _cmp_ge,
}


def _never(value):
    return False


# -- alpha ----------------------------------------------------------------

def constant(predicate, operand):
    """``fn(value) -> bool`` for one constant test.

    A tuple *operand* is a disjunction (always ``=``): membership by
    category, with numbers matching across ``int``/``float`` through
    hash equality, exactly like ``values_equal``.
    """
    if isinstance(operand, tuple):
        symbols = frozenset(x for x in operand if isinstance(x, str))
        numbers = frozenset(x for x in operand if is_number(x))

        def member(value):
            if isinstance(value, str):
                return value in symbols
            return (isinstance(value, NUMBER_TYPES)
                    and not isinstance(value, bool) and value in numbers)

        return member
    if predicate in ("=", "<>"):
        if is_number(operand):
            def eq(value):
                return (isinstance(value, NUMBER_TYPES)
                        and not isinstance(value, bool) and value == operand)
        elif isinstance(operand, str):
            def eq(value):
                return isinstance(value, str) and value == operand
        else:
            # Out-of-domain operand: values_equal is False for every
            # WME value, so '=' never matches and '<>' always does.
            eq = _never
        if predicate == "=":
            return eq
        return lambda value: not eq(value)
    if predicate == "<=>":
        if is_number(operand):
            return is_number
        if isinstance(operand, str):
            return lambda value: isinstance(value, str)
        return _never
    if not is_number(operand):
        return _never  # an order predicate against a non-number
    comparator = COMPARATORS[predicate]
    return lambda value: comparator(value, operand)


def alpha(analysis):
    """``fn(wme) -> bool``: the class, constant and intra tests of the
    CE *analysis* describes."""
    wme_class = analysis.ce.wme_class
    values = tuple(
        (check.attribute, constant(check.predicate, check.operand))
        for check in analysis.constant_checks
    )
    pairs = tuple(
        (test.attribute, COMPARATORS[test.predicate], test.other_attribute)
        for test in analysis.intra_tests
    )
    if not values and not pairs:
        return lambda wme: wme.wme_class == wme_class
    if len(values) == 1 and not pairs:
        ((attribute, test),) = values

        def single(wme):
            return (wme.wme_class == wme_class
                    and test(wme.row[wme.shape.get(attribute, -1)]))

        return single

    def chain(wme):
        if wme.wme_class != wme_class:
            return False
        row, index = wme.row, wme.shape.get
        for attribute, test in values:
            if not test(row[index(attribute, -1)]):
                return False
        for attribute, comparator, other in pairs:
            if not comparator(row[index(attribute, -1)],
                              row[index(other, -1)]):
                return False
        return True

    return chain


# -- beta -----------------------------------------------------------------

def _join_chain(tests):
    return tuple(
        (t.attribute, COMPARATORS[t.predicate], t.bound_level,
         t.bound_attribute)
        for t in tests
    )


def join(tests):
    """``fn(wme, lookup) -> bool``: every join test of *tests* between
    *wme* and the values ``lookup(level, attribute)`` resolves."""
    compiled = _join_chain(tests)
    if not compiled:
        return lambda wme, lookup: True
    if len(compiled) == 1:
        ((attribute, comparator, level, bound),) = compiled

        def single(wme, lookup):
            return comparator(wme.row[wme.shape.get(attribute, -1)],
                              lookup(level, bound))

        return single

    def chain(wme, lookup):
        row, index = wme.row, wme.shape.get
        for attribute, comparator, level, bound in compiled:
            if not comparator(row[index(attribute, -1)],
                              lookup(level, bound)):
                return False
        return True

    return chain


def scan(tests):
    """``fn(lookup, wmes) -> [wme, ...]``: the *wmes* passing every
    join test of *tests* against one token, in iteration order.

    The token's bound values are resolved once per call — a lookup walks
    the token chain — instead of once per candidate.
    """
    compiled = _join_chain(tests)
    if not compiled:
        return lambda lookup, wmes: list(wmes)
    if len(compiled) == 1:
        ((attribute, comparator, level, bound),) = compiled

        def single(lookup, wmes):
            target = lookup(level, bound)
            return [wme for wme in wmes
                    if comparator(wme.row[wme.shape.get(attribute, -1)],
                                  target)]

        return single

    def chain(lookup, wmes):
        checks = [(attribute, comparator, lookup(level, bound))
                  for attribute, comparator, level, bound in compiled]
        passing = []
        for wme in wmes:
            row, index = wme.row, wme.shape.get
            for attribute, comparator, target in checks:
                if not comparator(row[index(attribute, -1)], target):
                    break
            else:
                passing.append(wme)
        return passing

    return chain
