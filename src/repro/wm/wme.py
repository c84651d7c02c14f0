"""Working-memory elements (WMEs)."""

from __future__ import annotations

from repro import symbols
from repro.errors import WorkingMemoryError

#: Attribute value used for attributes a WME does not mention.
NIL = "nil"

#: The exact types a value may have without a closer look.  Anything
#: else (a ``bool``, a ``str`` subclass, a list) takes the per-pair
#: check, which decides and words the error.
PLAIN_TYPES = frozenset((str, int, float))

SYMBOL_TYPES = frozenset((str,))


def check_values(values, names_declared=False):
    """Raise :class:`WorkingMemoryError` unless every attribute name in
    the dict *values* is a symbol and every value a symbol or number.

    Exact ``str``/``int``/``float`` types pass on one set test; only
    otherwise are the pairs looked at one by one, in insertion order,
    so the error names the first offending pair.  *names_declared*
    skips the attribute names, already checked when the class's
    declared attribute set covers them.
    """
    if (PLAIN_TYPES.issuperset(map(type, values.values()))
            and (names_declared
                 or SYMBOL_TYPES.issuperset(map(type, values)))):
        return
    for attribute, value in values.items():
        if not symbols.is_symbol(attribute):
            raise WorkingMemoryError(
                f"attribute name must be a symbol, got {attribute!r}"
            )
        if not symbols.is_value(value):
            raise WorkingMemoryError(
                f"value for ^{attribute} must be a symbol or number, "
                f"got {value!r}"
            )


def shape_of(attributes):
    """The shape of a row over *attributes*: each name mapped to its
    index, in order."""
    return {attribute: index for index, attribute in enumerate(attributes)}


def encode_rows(facts, signed=False):
    """The row codec: *facts* (WMEs or, *signed*, ``(sign, wme)``
    pairs) as ``(shapes, rows)``, the layout of ``wm.json``, the wire's
    batch lines and the WAL's ``d`` frames.  ``shapes`` holds each
    (class, attribute order) once, as ``[class, [attribute, ...]]``,
    in first-use order; a row is ``[*sign, shape index, time tag,
    *values]``, its values in that shape's order."""
    shapes = []
    index_of = {}
    rows = []
    for fact in facts:
        sign, wme = fact if signed else (None, fact)
        key = (wme.wme_class, id(wme.shape))
        index = index_of.get(key)
        if index is None:
            index = index_of[key] = len(shapes)
            shapes.append([wme.wme_class, list(wme.shape)])
        row = [index, wme.time_tag, *wme.row[:-1]]
        rows.append([sign, *row] if signed else row)
    return shapes, rows


def decode_shapes(shapes):
    """The codec's decoder: a shape table as ``(class, attributes)``
    pairs, ready for :meth:`~repro.wm.memory.WorkingMemory.restore`."""
    return [(wme_class, tuple(names)) for wme_class, names in shapes]


class WME:
    """One working-memory element: a class name, attribute values, a time tag.

    WMEs are immutable; ``modify`` in OPS5 is remove-then-make and is
    implemented that way by :class:`~repro.wm.memory.WorkingMemory`, which
    also assigns time tags.  Two WMEs with identical content are distinct
    elements when their time tags differ — working memory is a multiset,
    which the paper's Figure 6 (duplicate ``Mike`` clerks) depends on.

    The values are a *row*: a tuple holding them in insertion order,
    then ``nil``.  The *shape* maps each attribute to its index in the
    row; working memory hands every element of one class made with the
    same attribute order the same shape, so an element costs its row
    alone.  An attribute the shape lacks reads index -1, the trailing
    ``nil`` — the OPS5 convention for an absent attribute — so
    ``row[shape.get(attribute, -1)]`` is a complete read, and the match
    kernels (:mod:`repro.rete.kernels`) make it inline.

    The constructor checks *values* and builds a private shape and row
    from them; :meth:`unchecked` takes a shape and row as they are.
    """

    __slots__ = ("wme_class", "shape", "row", "time_tag")

    def __init__(self, wme_class, values, time_tag):
        values = dict(values)
        check_values(values)
        self.wme_class = wme_class
        self.shape = shape_of(values)
        self.row = (*values.values(), NIL)
        self.time_tag = time_tag

    @classmethod
    def unchecked(cls, wme_class, shape, row, time_tag):
        """A WME over *shape* and *row* themselves, nothing checked:
        *row* holds a value per attribute of *shape*, in its order,
        then ``nil``.  Neither may change afterwards."""
        wme = object.__new__(cls)
        wme.wme_class = wme_class
        wme.shape = shape
        wme.row = row
        wme.time_tag = time_tag
        return wme

    def get(self, attribute):
        """Return the value stored under *attribute* (``nil`` if absent)."""
        return self.row[self.shape.get(attribute, -1)]

    def attributes(self):
        """Return the attribute names this WME explicitly carries."""
        return tuple(self.shape)

    def as_dict(self):
        """Return a copy of the attribute/value mapping."""
        return dict(zip(self.shape, self.row))

    def with_updates(self, updates):
        """Return the attribute mapping after applying *updates*.

        Used by ``modify``/``set-modify``: the result feeds a fresh
        ``make`` so the new element gets its own time tag.
        """
        merged = dict(zip(self.shape, self.row))
        merged.update(updates)
        return merged

    def same_content(self, other):
        """True when *other* has identical class and attribute values,
        in whatever order either carries them."""
        if self.wme_class != other.wme_class:
            return False
        if self.shape is other.shape:
            return self.row == other.row
        return self.as_dict() == other.as_dict()

    def __eq__(self, other):
        if not isinstance(other, WME):
            return NotImplemented
        return self.time_tag == other.time_tag and self.same_content(other)

    def __hash__(self):
        # Equal WMEs share a time tag, so this agrees with __eq__.
        return self.time_tag

    def __repr__(self):
        pairs = " ".join(
            f"^{attr} {symbols.format_value(value)}"
            for attr, value in sorted(zip(self.shape, self.row))
        )
        body = f"{self.wme_class} {pairs}".rstrip()
        return f"{self.time_tag}: ({body})"
