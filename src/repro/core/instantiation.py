"""Instantiations: what the conflict set holds and what the RHS fires on.

Two flavours (paper section 4):

* :class:`Instantiation` — a regular OPS5 instantiation: one WME per
  positive CE.
* :class:`SetInstantiation` — a *set-oriented instantiation* (SOI): a
  live view onto an aggregation of regular instantiations, produced by
  the S-node every matcher ends a set-oriented rule in.  Its
  contents can change while it sits in the conflict set ("only a pointer
  is passed", section 5); a version counter implements the paper's
  refire-on-change semantics.

Both expose the small protocol the conflict-resolution strategies and
the RHS executor need: ``rule``, ``recency_key()``, ``mea_tag()``,
``tokens()``, ``wme_at(level)``.
"""

from __future__ import annotations


def recency_key(time_tags):
    """LEX recency ordering key: time tags sorted descending.

    Python tuple comparison then reproduces OPS5 LEX: the instantiation
    with the more recent WME dominates; ties fall to the next tag; with
    an equal prefix the longer tag list dominates.
    """
    return tuple(sorted(time_tags, reverse=True))


def ce_tags(token):
    """*token*'s time tags in CE order, negated levels skipped.

    Unlike the recency key this keeps positions, so two instantiations
    matching the same WMEs in swapped CEs stay distinct.
    """
    return [wme.time_tag for wme in token.wmes() if wme is not None]


class MatchToken:
    """A matcher-independent regular instantiation body.

    One WME per CE level; negated levels hold ``None``.  Matchers that
    have their own token structures (Rete) adapt them to this protocol;
    the simple matchers build these directly.
    """

    __slots__ = ("_wmes", "_recency")

    def __init__(self, wmes):
        self._wmes = tuple(wmes)
        self._recency = recency_key(
            [w.time_tag for w in self._wmes if w is not None]
        )

    def wme_at(self, level):
        return self._wmes[level]

    def wmes(self):
        return self._wmes

    def time_tags(self):
        """Sorted-descending time tags of the positive-CE WMEs."""
        return self._recency

    def __eq__(self, other):
        if not isinstance(other, MatchToken):
            return NotImplemented
        return self._wmes == other._wmes

    def __hash__(self):
        return hash(self._wmes)

    def __repr__(self):
        tags = ",".join(
            str(w.time_tag) if w is not None else "-" for w in self._wmes
        )
        return f"MatchToken[{tags}]"


class Instantiation:
    """A regular (tuple-oriented) instantiation in the conflict set."""

    __slots__ = ("rule", "token", "fired")

    is_set_oriented = False

    def __init__(self, rule, token):
        self.rule = rule
        self.token = token
        self.fired = False

    # -- ordering ---------------------------------------------------------

    def recency_key(self):
        return self.token.time_tags()

    def mea_tag(self):
        """Recency of the first CE's WME (MEA's primary criterion)."""
        wme = self.token.wme_at(0)
        return wme.time_tag if wme is not None else 0

    def specificity(self):
        return self.rule.specificity()

    # -- refraction --------------------------------------------------------

    def eligible(self):
        """True when refraction permits this instantiation to fire."""
        return not self.fired

    def mark_fired(self):
        self.fired = True

    def refraction_state(self):
        """Opaque refraction snapshot for atomic-firing rollback."""
        return self.fired

    def restore_refraction(self, state):
        """Restore a snapshot taken by :meth:`refraction_state`."""
        self.fired = state

    # -- content ------------------------------------------------------------

    def tokens(self):
        """The instantiation's relation: a single token."""
        return [self.token]

    def wme_at(self, level):
        return self.token.wme_at(level)

    def identity(self):
        """Hashable identity for conflict-set bookkeeping."""
        return (self.rule.name, self.token)

    def __repr__(self):
        tags = " ".join(str(t) for t in sorted(
            t for t in (w.time_tag if w else None for w in self.token.wmes())
            if t is not None
        ))
        return f"<{self.rule.name}: {tags}>"


class SetInstantiation:
    """A set-oriented instantiation: live view onto an SOI.

    *soi* must provide: ``head()`` (the dominant token, None when
    empty), ``snapshot()`` (a copy of the tokens ordered like the
    conflict set, head first), ``len()``, ``digest`` (the membership
    digest the refraction stamp carries), ``version`` (int bumped on
    every content change), ``on_change`` (None, or a callable the
    holding conflict set installs: every ``version`` bump must call it,
    or the conflict set keeps ranking the SOI at its older version),
    ``key_wme(level)`` (the WME of a scalar CE), and ``p_value(name)``
    (the partition value of a ``:scalar`` variable).
    """

    __slots__ = ("rule", "soi", "_fired_version")

    is_set_oriented = True

    def __init__(self, rule, soi):
        self.rule = rule
        self.soi = soi
        self._fired_version = None

    # -- ordering ---------------------------------------------------------

    def recency_key(self):
        """Ranked by the head (most dominant) token, per paper section 5."""
        head = self.soi.head()
        return head.time_tags() if head is not None else ()

    def mea_tag(self):
        head = self.soi.head()
        wme = head.wme_at(0) if head is not None else None
        return wme.time_tag if wme is not None else 0

    def specificity(self):
        return self.rule.specificity()

    # -- refraction / refire -------------------------------------------------

    def eligible(self):
        """Refire-on-change: eligible unless fired at this exact version."""
        return self._fired_version != self.soi.version

    def mark_fired(self):
        self._fired_version = self.soi.version

    def refraction_state(self):
        """Opaque refraction snapshot for atomic-firing rollback."""
        return self._fired_version

    def restore_refraction(self, state):
        """Restore a snapshot taken by :meth:`refraction_state`."""
        self._fired_version = state

    # -- content ------------------------------------------------------------

    def tokens(self):
        """Snapshot of the SOI's relation, head token first."""
        return self.soi.snapshot()

    def wme_at(self, level):
        """The WME of a scalar (non-set, non-negated) CE."""
        return self.soi.key_wme(level)

    def p_value(self, name):
        return self.soi.p_value(name)

    def identity(self):
        return (self.rule.name, id(self.soi))

    def __repr__(self):
        return (
            f"<SOI {self.rule.name}: {len(self.soi)} tokens, "
            f"v{self.soi.version}>"
        )
