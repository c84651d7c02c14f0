"""Compiled alpha/beta match kernels: the network's codegen layer.

The interpreted hot path evaluates every alpha constant test and every
beta join test by walking a list of test objects per activation —
``all(check.matches(wme) for check in checks)`` pays a generator, a
method dispatch, and a predicate-string comparison chain per test per
candidate.  This module compiles each node's test list **once, at
network-build time** into a specialized Python function:

* **closure mode** (the default) composes per-predicate closures with
  the operands captured as locals — no string dispatch, no generator,
  early exit between tests;
* **off** restores the interpreted test walk — the test oracle,
  mirroring the storage layer's pushdown seam (``docs/STORAGE.md``):
  kernels may only change *speed*, never results, and every kernelized
  call site keeps its interpreted twin.

There is deliberately one compiled mode: a second, source-rendering
``exec`` mode measured inside run-to-run noise of ``closure`` while
paying ~60 % more engine setup, and was deleted (``docs/KERNELS.md``
has the numbers).

Kernels are cached per :class:`KernelPack` under a *structural key*
over the test list (the same ``key()`` tuples alpha/beta node sharing
uses), so two nodes with identical tests — across rules — share one
compiled function.  ``MatchStats`` counts ``kernels_compiled`` and
``kernel_cache_hits``; the bench gate pins ``kernels_compiled`` exactly
so a silently-lost compilation fails the build.

The module also supplies the **columnar** half of the story: under a
kernelized network alpha memories mirror their WMEs into parallel
per-attribute arrays (:attr:`repro.rete.alpha.AlphaMemory.columnar`),
and the scan kernels (:meth:`KernelPack.scan`) evaluate a join-test
chain over those arrays for one fixed left token.

Selection is uniform: ``RuleEngine(kernels=...)``, the CLI
``--kernels`` flag, or the ``REPRO_KERNELS`` environment variable, all
taking ``off`` | ``closure``.  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

import os
import threading

from repro.engine.stats import NULL_STATS
from repro.errors import ReproError
from repro.symbols import same_type, values_equal

#: Recognised kernel modes, in documentation order.
KERNEL_MODES = ("off", "closure")

#: Mode used when neither the caller nor ``REPRO_KERNELS`` chooses.
DEFAULT_MODE = "closure"

NUMBER_TYPES = (int, float)


def resolve_kernels(spec=None):
    """Resolve a kernel-mode spec to ``off`` / ``closure``.

    *spec* ``None`` falls back to the ``REPRO_KERNELS`` environment
    variable, then to :data:`DEFAULT_MODE`.  Booleans are accepted as
    conveniences: ``True`` means the default compiled mode, ``False``
    means ``off``.
    """
    if spec is None:
        spec = os.environ.get("REPRO_KERNELS") or DEFAULT_MODE
    if spec is True:
        return DEFAULT_MODE
    if spec is False:
        return "off"
    mode = str(spec).strip().lower()
    if mode not in KERNEL_MODES:
        raise ReproError(
            f"unknown kernel mode {spec!r} "
            f"(expected one of {', '.join(KERNEL_MODES)})"
        )
    return mode


# -- predicate comparators (pairwise, exact OPS5 semantics) ---------------
#
# Each comparator mirrors symbols.apply_predicate for one fixed
# predicate, skipping the string-dispatch chain.

def _cmp_eq(left, right):
    return values_equal(left, right)


def _cmp_ne(left, right):
    return not values_equal(left, right)


def _cmp_same_type(left, right):
    return same_type(left, right)


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


COMPARATORS = {
    "=": _cmp_eq,
    "<>": _cmp_ne,
    "<=>": _cmp_same_type,
    "<": _cmp_lt,
    "<=": _cmp_le,
    ">": _cmp_gt,
    ">=": _cmp_ge,
}

_ORDER_PREDICATES = ("<", "<=", ">", ">=")


def _is_ops_number(value):
    return isinstance(value, NUMBER_TYPES) and not isinstance(value, bool)


# -- alpha specs ----------------------------------------------------------
#
# A spec is the structural description of one alpha memory's
# constant-test chain: (wme_class, (descriptor, ...)).  Descriptors:
#   ("const", attribute, predicate, operand)   constant / disjunction
#   ("intra", attribute, predicate, other_attribute)
# The spec doubles as the kernel cache key.

def alpha_spec(analysis):
    """The structural spec of *analysis*'s alpha tests (hashable)."""
    checks = tuple(
        ("const", check.attribute, check.predicate, check.operand)
        for check in analysis.constant_checks
    ) + tuple(
        ("intra", test.attribute, test.predicate, test.other_attribute)
        for test in analysis.intra_tests
    )
    return (analysis.ce.wme_class, checks)


def _const_value_predicate(predicate, operand):
    """Compile one constant check into ``fn(value) -> bool``."""
    if isinstance(operand, tuple):
        # Disjunction (always '='): category-checked set membership.
        # Numeric candidates match across int/float via hash equality,
        # exactly like values_equal.
        symbols_set = frozenset(x for x in operand if isinstance(x, str))
        numbers_set = frozenset(x for x in operand if _is_ops_number(x))

        def fn(value, _s=symbols_set, _n=numbers_set):
            if isinstance(value, str):
                return value in _s
            if isinstance(value, NUMBER_TYPES) and not isinstance(
                value, bool
            ):
                return value in _n
            return False

        return fn
    if predicate in ("=", "<>"):
        if _is_ops_number(operand):
            def eq(value, _c=operand):
                return (isinstance(value, NUMBER_TYPES)
                        and not isinstance(value, bool) and value == _c)
        elif isinstance(operand, str):
            def eq(value, _c=operand):
                return isinstance(value, str) and value == _c
        else:
            # Out-of-domain operand: values_equal is False for every
            # WME value, so '=' never matches and '<>' always does.
            def eq(value):
                return False
        if predicate == "=":
            return eq

        def ne(value, _eq=eq):
            return not _eq(value)

        return ne
    if predicate == "<=>":
        if _is_ops_number(operand):
            def fn(value):
                return (isinstance(value, NUMBER_TYPES)
                        and not isinstance(value, bool))
        elif isinstance(operand, str):
            def fn(value):
                return isinstance(value, str)
        else:
            def fn(value):
                return False
        return fn
    if predicate in _ORDER_PREDICATES:
        if not _is_ops_number(operand):
            def fn(value):
                return False
            return fn
        comparator = COMPARATORS[predicate]

        def fn(value, _cmp=comparator, _c=operand):
            return _cmp(value, _c)

        return fn
    # Unknown predicate: defer to the interpreter's error behaviour.
    from repro import symbols

    def fn(value, _p=predicate, _c=operand):
        return symbols.apply_predicate(_p, value, _c)

    return fn


def _alpha_column_ops(spec):
    """Per-attribute value predicates / pair comparators for *spec*.

    Returns ``[("value", attribute, fn(value)), ...]`` and
    ``[("pair", attribute, other, fn(left, right)), ...]`` merged in
    spec order.
    """
    ops = []
    for desc in spec[1]:
        if desc[0] == "const":
            _, attribute, predicate, operand = desc
            ops.append(
                ("value", attribute,
                 _const_value_predicate(predicate, operand))
            )
        else:
            _, attribute, predicate, other = desc
            ops.append(("pair", attribute, other, COMPARATORS[predicate]))
    return ops


def _closure_alpha_kernel(spec):
    """Closure-mode ``fn(wme) -> bool`` for one alpha spec."""
    wme_class = spec[0]
    ops = _alpha_column_ops(spec)
    if not ops:
        def kernel(wme, _cls=wme_class):
            return wme.wme_class == _cls
        return kernel
    if len(ops) == 1 and ops[0][0] == "value":
        _, attribute, predicate = ops[0]

        def kernel(wme, _cls=wme_class, _a=attribute, _p=predicate):
            return wme.wme_class == _cls and _p(wme.get(_a))

        return kernel
    compiled = tuple(ops)

    def kernel(wme, _cls=wme_class, _ops=compiled):
        if wme.wme_class != _cls:
            return False
        get = wme.get
        for op in _ops:
            if op[0] == "value":
                if not op[2](get(op[1])):
                    return False
            elif not op[3](get(op[1]), get(op[2])):
                return False
        return True

    return kernel


# -- join kernels ---------------------------------------------------------

def _closure_join_kernel(tests):
    """Closure-mode ``fn(wme, lookup) -> bool`` for a join-test chain."""
    if not tests:
        def kernel(wme, lookup):
            return True
        return kernel
    compiled = tuple(
        (t.attribute, COMPARATORS[t.predicate], t.bound_level,
         t.bound_attribute)
        for t in tests
    )
    if len(compiled) == 1:
        attribute, comparator, level, bound = compiled[0]

        def kernel(wme, lookup, _a=attribute, _c=comparator, _l=level,
                   _b=bound):
            return _c(wme.get(_a), lookup(_l, _b))

        return kernel
    if len(compiled) == 2:
        (a0, c0, l0, b0), (a1, c1, l1, b1) = compiled

        def kernel(wme, lookup, _a0=a0, _c0=c0, _l0=l0, _b0=b0,
                   _a1=a1, _c1=c1, _l1=l1, _b1=b1):
            return (_c0(wme.get(_a0), lookup(_l0, _b0))
                    and _c1(wme.get(_a1), lookup(_l1, _b1)))

        return kernel

    def kernel(wme, lookup, _tests=compiled):
        get = wme.get
        for attribute, comparator, level, bound in _tests:
            if not comparator(get(attribute), lookup(level, bound)):
                return False
        return True

    return kernel


def _scan_kernel(tests):
    """Columnar full-scan kernel ``fn(lookup, wmes, columns) -> passing``.

    Evaluates a join-test chain over an alpha memory's parallel
    per-attribute arrays for one fixed left token, hoisting every
    ``lookup`` (a walk up the token chain in the interpreted path —
    once per candidate per test) out of the loop entirely.  Candidate
    order is the arrays' order, which the columnar alpha memory keeps
    identical to insertion order, so downstream propagation order is
    unchanged.
    """
    compiled = tuple(
        (t.attribute, COMPARATORS[t.predicate], t.bound_level,
         t.bound_attribute)
        for t in tests
    )
    if not compiled:
        def kernel(lookup, wmes, columns):
            return list(wmes)
        return kernel
    if len(compiled) == 1:
        attribute, comparator, level, bound = compiled[0]

        def kernel(lookup, wmes, columns, _a=attribute, _c=comparator,
                   _l=level, _b=bound):
            target = lookup(_l, _b)
            column = columns[_a]
            return [
                wmes[i] for i, value in enumerate(column)
                if _c(value, target)
            ]

        return kernel

    def kernel(lookup, wmes, columns, _tests=compiled):
        bounds = [lookup(level, bound) for _, _, level, bound in _tests]
        cols = [columns[attribute] for attribute, _, _, _ in _tests]
        passing = []
        for i, wme in enumerate(wmes):
            for k, (_, comparator, _, _) in enumerate(_tests):
                if not comparator(cols[k][i], bounds[k]):
                    break
            else:
                passing.append(wme)
        return passing

    return kernel


# -- the pack -------------------------------------------------------------

class KernelPack:
    """One network's kernel compiler + structural cache.

    Shared by every node of a :class:`~repro.rete.network.ReteNetwork`
    (each shard of a sharded network owns its own pack), so nodes with
    identical test lists — within and across rules — share one compiled
    function.  Counters surface through the attached
    :class:`~repro.engine.stats.MatchStats` (``kernels_compiled`` /
    ``kernel_cache_hits``) and locally as ``compiled`` / ``cache_hits``.

    A pack constructed with ``shared=True`` is meant to outlive any one
    network: the service layer's rule-base cache
    (:mod:`repro.service.rulebase`) hands the same pack to every
    session built from the same program, so a thousand tenants compile
    each structural test chain once.  Shared packs are thread-safe
    (networks for different sessions may be built concurrently) and pin
    their stats hook: per-session ``set_stats`` calls must not
    re-attribute the shared compile counters to one tenant's collector.
    """

    __slots__ = ("mode", "stats", "compiled", "cache_hits", "_cache",
                 "shared", "_lock")

    def __init__(self, mode=None, stats=None, shared=False):
        self.mode = resolve_kernels(mode)
        if self.mode == "off":
            raise ReproError(
                "KernelPack requires the compiled mode (closure); "
                "use kernels='off' at the network level for the "
                "interpreted walk"
            )
        self.stats = stats if stats is not None else NULL_STATS
        self.compiled = 0
        self.cache_hits = 0
        self._cache = {}
        self.shared = shared
        self._lock = threading.Lock()

    def attach_stats(self, stats):
        if self.shared:
            return
        self.stats = stats

    def _get(self, key, build):
        with self._lock:
            fn = self._cache.get(key)
            if fn is not None:
                self.cache_hits += 1
                self.stats.kernel_cache_hit()
                return fn
            fn = build()
            self._cache[key] = fn
            self.compiled += 1
            self.stats.kernel_compiled()
            return fn

    def alpha(self, analysis):
        """Compiled ``fn(wme) -> bool`` for a CE's alpha-test chain."""
        spec = alpha_spec(analysis)
        return self._get(("alpha", spec),
                         lambda: _closure_alpha_kernel(spec))

    def join(self, tests):
        """Compiled ``fn(wme, lookup) -> bool`` for a join-test list."""
        tests = tuple(tests)
        key = ("join", tuple(t.key() for t in tests))
        return self._get(key, lambda: _closure_join_kernel(tests))

    def scan(self, tests):
        """Columnar scan kernel for a join-test list (see _scan_kernel)."""
        tests = tuple(tests)
        key = ("scan", tuple(t.key() for t in tests))
        return self._get(key, lambda: _scan_kernel(tests))

    def __repr__(self):
        return (f"KernelPack(mode={self.mode}, {len(self._cache)} cached, "
                f"{self.compiled} compiled, {self.cache_hits} hits)")


def build_kernels(spec=None, stats=None):
    """Resolve *spec* and return a :class:`KernelPack`, or None for off.

    *spec* may also be a ready-made :class:`KernelPack` — typically a
    ``shared=True`` pack from the service layer's rule-base cache — in
    which case it is returned as-is (its own stats binding wins).
    """
    if isinstance(spec, KernelPack):
        return spec
    mode = resolve_kernels(spec)
    if mode == "off":
        return None
    return KernelPack(mode, stats=stats)
