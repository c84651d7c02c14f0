"""The matcher registry: the one place the matcher lattice is stated.

Every surface that names a matcher — ``RuleEngine(matcher="...")``, the
CLI ``--matcher`` choices, checkpoint manifests and recovery, the
service's ``create`` op and its rule-base cache keys — reads
:data:`MATCHERS` instead of restating the names.  Classes are imported
on first use, so naming a matcher never pulls in the relational
substrate (dips) or any other matcher's module.
"""

from __future__ import annotations

from importlib import import_module
from typing import NamedTuple

from repro.errors import ReproError


class MatcherSpec(NamedTuple):
    """One registry row: where the class lives and which of the
    engine-level construction options it consumes."""

    path: str  # "module:ClassName", imported lazily
    takes_backend: bool  # relational storage backend spec


MATCHERS = {
    "rete": MatcherSpec("repro.rete.network:ReteNetwork", False),
    "naive": MatcherSpec("repro.match.naive:NaiveMatcher", False),
    "dips": MatcherSpec("repro.dips.matcher:DipsMatcher", True),
}

#: Registry names in documentation order (argparse ``choices``).
MATCHER_NAMES = tuple(MATCHERS)


def matcher_spec(name):
    """The :class:`MatcherSpec` registered under *name* (typed error)."""
    spec = MATCHERS.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ReproError(
            f"unknown matcher {name!r} "
            f"(expected one of {', '.join(MATCHER_NAMES)})"
        )
    return spec


def matcher_class(name):
    """The matcher class registered under *name*, imported on demand."""
    module, _, cls = matcher_spec(name).path.partition(":")
    return getattr(import_module(module), cls)


def build_matcher(name, backend=None):
    """Instantiate a matcher by registry name.

    *backend* (a storage backend spec) reaches only the matchers whose
    registry row takes it; the others ignore it.
    """
    options = {"backend": backend} if matcher_spec(name).takes_backend else {}
    return matcher_class(name)(**options)


def matcher_name(matcher):
    """The registry name of *matcher*'s exact class, or None if unknown
    (subclasses are not the registered class and are not named)."""
    cls = type(matcher)
    path = f"{cls.__module__}:{cls.__name__}"
    for name, spec in MATCHERS.items():
        if spec.path == path:
            return name
    return None
