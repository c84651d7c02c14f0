"""Shared fixtures: paper working-memory setups and matcher matrix."""

from __future__ import annotations

import pytest

from repro import RuleEngine
from repro.core.instantiation import ce_tags
from repro.dips import DipsMatcher
from repro.match import NaiveMatcher
from repro.rete import ReteNetwork

#: The paper's Figure 1 working memory: five players on two teams.
PAPER_ROSTER = [
    ("A", "Jack"),
    ("A", "Janice"),
    ("B", "Sue"),
    ("B", "Jack"),
    ("B", "Sue"),
]

#: Every matcher, and DIPS once more on its sqlite backend: the COND
#: tables and residual negation then run through the pushed-down SQL.
MATCHER_FACTORIES = {
    "rete": ReteNetwork,
    "naive": NaiveMatcher,
    "dips": DipsMatcher,
    "dips-sqlite": lambda: DipsMatcher(backend="sqlite"),
}


@pytest.fixture(params=list(MATCHER_FACTORIES))
def matcher_name(request):
    return request.param


@pytest.fixture
def make_engine():
    """Factory: ``make_engine(matcher_name='rete', **kwargs)``."""

    def factory(matcher_name="rete", **kwargs):
        matcher = MATCHER_FACTORIES[matcher_name]()
        return RuleEngine(matcher=matcher, **kwargs)

    return factory


def cs_state(engine, instantiations=None):
    """The conflict-set oracle: one sorted row per instantiation.

    Each row is ``(rule, set flag, members, eligible)`` where *members*
    is every token's CE-order time tags, sorted — the instantiation's
    full content, not its refraction stamp, so an SOI compares member
    by member.  *instantiations* defaults to the live conflict set.
    """
    if instantiations is None:
        instantiations = engine.conflict_set.instantiations()
    return sorted(
        (
            inst.rule.name,
            inst.is_set_oriented,
            tuple(sorted(tuple(ce_tags(token)) for token in inst.tokens())),
            inst.eligible(),
        )
        for inst in instantiations
    )


def load_roster(engine, roster=None):
    """Declare the player class and make the given roster WMEs."""
    engine.literalize("player", "name", "team")
    for team, name in roster if roster is not None else PAPER_ROSTER:
        engine.make("player", team=team, name=name)


@pytest.fixture
def roster_engine(make_engine, matcher_name):
    """An engine (per incremental matcher) preloaded with Figure 1 WM."""

    def factory(program):
        engine = make_engine(matcher_name)
        engine.load(program)
        load_roster(engine)
        return engine

    return factory


def make_codec_cases(engine):
    """Make in *engine* the facts the row codec
    (:func:`repro.wm.wme.encode_rows`) must carry unchanged, and return
    their ``(sign, wme)`` events in order: a fact made before its
    class's ``literalize`` (it keeps ``^salary``, which the declaration
    lacks), one class made in two attribute orders, floats and
    negative numbers, and the ``-`` then ``+`` of a modify."""
    sue = engine.make("player", name="Sue", salary=3)
    engine.literalize("player", "name", "team")
    ann = engine.make("player", name="Ann", team="y")
    nan = engine.make("player", team="z", name="Nan")
    reading = engine.make("reading", value=-2.5, n=-7, at=1e-3)
    widened = engine.modify(sue, team="x")
    return [("+", sue), ("+", ann), ("+", nan), ("+", reading),
            ("-", sue), ("+", widened)]


def wm_rows(engine):
    """Working memory as ``(tag, class, attribute/value pairs)`` rows,
    attribute order kept."""
    return [(w.time_tag, w.wme_class, list(zip(w.shape, w.row)))
            for w in engine.wm]
