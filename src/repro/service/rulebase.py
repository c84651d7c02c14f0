"""Shared rule bases: parse once, serve N tenants.

A long-lived decision service runs one *program* for many concurrent
sessions — Knowledgenet's ``entrypoint(input_facts, rules)`` shape with
the rules fixed per service.  Building each session's engine from
source would parse the program again per tenant; at a thousand
sessions that is a thousand parses of the same text.

:class:`RuleBaseCache` removes the repetition: the program is **parsed
once** per distinct ``(source, matcher, backend)`` key, and sessions
reuse the AST ``Rule`` objects (they are read-only to the matchers;
each engine computes its own :class:`~repro.analysis.RuleAnalysis` and
builds its own network).

Cache keys hash the program source (SHA-256), so two tenants posting
byte-identical programs share a rule base even over separate
connections.  Matcher *instances* are never shared — alpha/beta
memories, tokens, and conflict sets are session state; only the
immutable parse crosses tenants.
"""

from __future__ import annotations

import hashlib
import threading

from repro.engine.reliability import commit_scope
from repro.lang.parser import parse_program
from repro.match import build_matcher, matcher_spec


def rule_base_key(source, matcher="rete", backend=None):
    """The cache key for one parsed rule base.

    The program source is content-hashed.  The backend is normalised
    away for the matchers whose registry row does not take one, so
    tenants differing only in an option their matcher ignores share
    one parse.
    """
    spec = matcher_spec(matcher)
    store = (backend or "memory") if spec.takes_backend else "-"
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return (digest, matcher, store)


class RuleBase:
    """One parsed program, ready to stamp engines out of."""

    __slots__ = ("key", "source", "matcher_name", "backend",
                 "literalizations", "rules", "sessions_built", "_lock")

    def __init__(self, source, matcher="rete", backend=None):
        self.key = rule_base_key(source, matcher, backend)
        self.source = source
        self.matcher_name = matcher
        self.backend = backend
        self.literalizations, self.rules = parse_program(source)
        self.sessions_built = 0
        self._lock = threading.Lock()

    @property
    def version(self):
        """The rule-base version hash (matches checkpoint manifests)."""
        from repro.durability.checkpoint import rule_base_version

        return rule_base_version(self.source)

    def build_matcher(self):
        """A fresh, private matcher for one session."""
        return build_matcher(self.matcher_name, backend=self.backend)

    def build_engine(self, **engine_kwargs):
        """A fresh :class:`~repro.engine.engine.RuleEngine` loaded with
        this rule base (no reparse).

        *engine_kwargs* pass through to the engine constructor
        (``strategy``, ``durability``, ``on_error``, ``stats``,
        ``trace_limit``).  With durability attached, the
        engine's WAL records the same literalize/rule records a
        ``load()`` of the source would — recovery does not care that
        the parse was shared — and the load is one commit unit: under
        ``fsync=batch`` its frames are synced, with one fsync, before
        this returns.
        """
        from repro.engine.engine import RuleEngine

        engine = RuleEngine(matcher=self.build_matcher(),
                            **engine_kwargs)
        with commit_scope(engine):
            for wme_class, attributes in self.literalizations:
                engine.literalize(wme_class, *attributes)
            for rule in self.rules:
                engine.add_rule(rule)
        with self._lock:
            self.sessions_built += 1
        return engine

    def __repr__(self):
        return (
            f"RuleBase({len(self.rules)} rules, {self.matcher_name}, "
            f"{self.sessions_built} session(s) built)"
        )


class RuleBaseCache:
    """Thread-safe cache of :class:`RuleBase` by :func:`rule_base_key`."""

    def __init__(self):
        self._bases = {}
        self._lock = threading.Lock()
        self.compiles = 0
        self.hits = 0
        self.forks = 0

    def get(self, source, matcher="rete", backend=None):
        """``(rule_base, hit)`` for the given program/configuration."""
        return self._lookup(source, matcher, backend, forked=False)

    def fork(self, parent, source):
        """``(rule_base, hit)`` for a tenant diverging from *parent* to
        *source* (copy-on-write after a runtime reload).

        Like :meth:`get` with *parent*'s matcher and backend, but a miss
        counts as a fork.  Two tenants reloading to byte-identical
        programs converge on one forked entry — the second is a hit.
        """
        return self._lookup(source, parent.matcher_name, parent.backend,
                            forked=True)

    def _lookup(self, source, matcher, backend, forked):
        key = rule_base_key(source, matcher, backend)
        with self._lock:
            base = self._bases.get(key)
            if base is not None:
                self.hits += 1
                return base, True
        # Parse outside the lock (parse can be slow for big programs);
        # a concurrent miss on the same key keeps the first one in.
        base = RuleBase(source, matcher=matcher, backend=backend)
        with self._lock:
            existing = self._bases.get(key)
            if existing is not None:
                self.hits += 1
                return existing, True
            self._bases[key] = base
            if forked:
                self.forks += 1
            else:
                self.compiles += 1
            return base, False

    def stats(self):
        """Cache-level and per-base counters, JSON-safe."""
        with self._lock:
            bases = list(self._bases.values())
            return {
                "rule_bases": len(bases),
                "compiles": self.compiles,
                "hits": self.hits,
                "forks": self.forks,
                "sessions_built": sum(b.sessions_built for b in bases),
            }

    def __len__(self):
        with self._lock:
            return len(self._bases)
