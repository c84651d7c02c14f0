"""Shared rule bases: parse once, kernel-compile once, serve N tenants.

A long-lived decision service runs one *program* for many concurrent
sessions — Knowledgenet's ``entrypoint(input_facts, rules)`` shape with
the rules fixed per service.  Building each session's engine from
source would pay the parse and every kernel compilation again per
tenant; at a thousand sessions that is a thousand network builds of
identical structure.

:class:`RuleBaseCache` removes the repetition:

* the program is **parsed once** per distinct ``(source, matcher,
  kernels, backend)`` key — sessions reuse the AST ``Rule`` objects
  (they are read-only to the matchers; each engine computes its own
  :class:`~repro.analysis.RuleAnalysis`);
* for Rete-family matchers a single ``shared=True``
  :class:`~repro.rete.kernels.KernelPack` is handed to every session's
  network, so the structural-key kernel cache spans tenants: the first
  session compiles each distinct alpha/join/scan chain, every later
  session hits the cache.  ``RuleBase.kernel_stats()`` exposes the
  counters the acceptance test pins (N sessions ⇒ 1 compile's worth of
  ``compiled``, the rest ``cache_hits``).

Cache keys hash the program source (SHA-256), so two tenants posting
byte-identical programs share a rule base even over separate
connections.  Matcher *instances* are never shared — alpha/beta
memories, tokens, and conflict sets are session state; only the
immutable artifacts (ASTs, compiled kernel functions) cross tenants.
"""

from __future__ import annotations

import hashlib
import threading

from repro.lang.parser import parse_program
from repro.match import build_matcher, matcher_spec
from repro.rete.kernels import KernelPack, resolve_kernels


def rule_base_key(source, matcher="rete", kernels=None, backend=None):
    """The cache key for one compiled rule base.

    The program source is content-hashed; matcher/kernel/backend specs
    are normalised so equivalent spellings collide.  Kernel mode and
    backend are normalised away for the matchers whose registry row
    does not take them, so tenants differing only in an option their
    matcher ignores share one parse and one kernel compile.
    """
    spec = matcher_spec(matcher)
    mode = resolve_kernels(kernels) if spec.takes_kernels else "-"
    store = (backend or "memory") if spec.takes_backend else "-"
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return (digest, matcher, mode, store)


class RuleBase:
    """One parsed program + its shared kernel pack, ready to stamp
    engines out of."""

    __slots__ = ("key", "source", "matcher_name", "kernel_mode",
                 "backend", "literalizations", "rules", "kernel_pack",
                 "sessions_built", "_lock")

    def __init__(self, source, matcher="rete", kernels=None,
                 backend=None):
        self.key = rule_base_key(source, matcher, kernels, backend)
        self.source = source
        self.matcher_name = matcher
        self.kernel_mode = resolve_kernels(kernels)
        self.backend = backend
        self.literalizations, self.rules = parse_program(source)
        self.kernel_pack = None
        if (matcher_spec(matcher).takes_kernels
                and self.kernel_mode != "off"):
            self.kernel_pack = KernelPack(self.kernel_mode, shared=True)
        self.sessions_built = 0
        self._lock = threading.Lock()

    @classmethod
    def forked(cls, parent, source):
        """Copy-on-write divergence: a rule base for *source* sharing
        *parent*'s kernel pack.

        A tenant that reloads rules at runtime gets a forked rule base
        under its own content key while untouched tenants keep sharing
        the parent entry.  The kernel pack is the *same object*: the
        structural-key cache spans the fork, so only genuinely new
        alpha/join/scan chains compile — replacing one rule shared by
        N tenants costs exactly one new compile, not N rebuilds.
        """
        base = cls.__new__(cls)
        base.key = rule_base_key(
            source, parent.matcher_name, parent.kernel_mode,
            parent.backend,
        )
        base.source = source
        base.matcher_name = parent.matcher_name
        base.kernel_mode = parent.kernel_mode
        base.backend = parent.backend
        base.literalizations, base.rules = parse_program(source)
        base.kernel_pack = parent.kernel_pack
        base.sessions_built = 0
        base._lock = threading.Lock()
        return base

    @property
    def version(self):
        """The rule-base version hash (matches checkpoint manifests)."""
        from repro.durability.checkpoint import rule_base_version

        return rule_base_version(self.source)

    def build_matcher(self):
        """A fresh matcher wired to the shared kernel pack (if any)."""
        kernels = (
            self.kernel_pack if self.kernel_pack is not None
            else self.kernel_mode
        )
        return build_matcher(
            self.matcher_name, backend=self.backend, kernels=kernels
        )

    def build_engine(self, **engine_kwargs):
        """A fresh :class:`~repro.engine.engine.RuleEngine` loaded with
        this rule base (no reparse, shared kernels).

        *engine_kwargs* pass through to the engine constructor
        (``strategy``, ``durability``, ``on_error``, ``workers``,
        ``stats``, ``trace_limit``).  With durability attached, the
        engine's WAL records the same literalize/rule records a
        ``load()`` of the source would — recovery does not care that
        the parse was shared.
        """
        from repro.engine.engine import RuleEngine

        engine = RuleEngine(matcher=self.build_matcher(),
                            **engine_kwargs)
        for wme_class, attributes in self.literalizations:
            engine.literalize(wme_class, *attributes)
        for rule in self.rules:
            engine.add_rule(rule)
        with self._lock:
            self.sessions_built += 1
        return engine

    def kernel_stats(self):
        """``{"compiled": n, "cache_hits": n}`` of the shared pack
        (zeros for interpreted matchers / kernels off)."""
        if self.kernel_pack is None:
            return {"compiled": 0, "cache_hits": 0}
        return {
            "compiled": self.kernel_pack.compiled,
            "cache_hits": self.kernel_pack.cache_hits,
        }

    def __repr__(self):
        return (
            f"RuleBase({len(self.rules)} rules, {self.matcher_name}, "
            f"kernels={self.kernel_mode}, "
            f"{self.sessions_built} session(s) built)"
        )


class RuleBaseCache:
    """Thread-safe cache of :class:`RuleBase` by structural key."""

    def __init__(self):
        self._bases = {}
        self._lock = threading.Lock()
        self.compiles = 0
        self.hits = 0
        self.forks = 0

    def get(self, source, matcher="rete", kernels=None, backend=None):
        """``(rule_base, hit)`` for the given program/configuration."""
        key = rule_base_key(source, matcher, kernels, backend)
        with self._lock:
            base = self._bases.get(key)
            if base is not None:
                self.hits += 1
                return base, True
        # Parse outside the lock (parse can be slow for big programs);
        # a concurrent miss on the same key keeps the first one in.
        base = RuleBase(source, matcher=matcher, kernels=kernels,
                        backend=backend)
        with self._lock:
            existing = self._bases.get(key)
            if existing is not None:
                self.hits += 1
                return existing, True
            self._bases[key] = base
            self.compiles += 1
            return base, False

    def fork(self, parent, source):
        """``(rule_base, hit)`` for a tenant diverging to *source*.

        Like :meth:`get`, but a miss builds the entry by forking
        *parent* (sharing its kernel pack) instead of compiling from
        scratch.  Two tenants reloading to byte-identical programs
        converge on one forked entry — the second is a hit.
        """
        key = rule_base_key(
            source, parent.matcher_name, parent.kernel_mode,
            parent.backend,
        )
        with self._lock:
            base = self._bases.get(key)
            if base is not None:
                self.hits += 1
                return base, True
        base = RuleBase.forked(parent, source)
        with self._lock:
            existing = self._bases.get(key)
            if existing is not None:
                self.hits += 1
                return existing, True
            self._bases[key] = base
            self.forks += 1
            return base, False

    def stats(self):
        """Cache-level and per-base counters, JSON-safe."""
        with self._lock:
            bases = list(self._bases.values())
            compiles, hits = self.compiles, self.hits
            forks = self.forks
        # Forked bases share their parent's kernel pack, so sum packs,
        # not bases — otherwise every fork would re-count the shared
        # pack's compilations.
        packs = {
            id(b.kernel_pack): b.kernel_pack
            for b in bases if b.kernel_pack is not None
        }
        return {
            "rule_bases": len(bases),
            "compiles": compiles,
            "hits": hits,
            "forks": forks,
            "kernels_compiled": sum(
                p.compiled for p in packs.values()
            ),
            "kernel_cache_hits": sum(
                p.cache_hits for p in packs.values()
            ),
            "sessions_built": sum(b.sessions_built for b in bases),
        }

    def __len__(self):
        with self._lock:
            return len(self._bases)
