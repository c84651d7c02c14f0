"""Unit tests for WMEs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import symbols
from repro.errors import WorkingMemoryError
from repro.wm import WME, WorkingMemory


def wme(tag=1, **values):
    return WME("player", values, tag)


class TestWME:
    def test_get_and_default_nil(self):
        element = wme(name="Jack", team="A")
        assert element.get("name") == "Jack"
        assert element.get("missing") == "nil"

    def test_attributes_and_as_dict(self):
        element = wme(name="Jack", team="A")
        assert set(element.attributes()) == {"name", "team"}
        assert element.as_dict() == {"name": "Jack", "team": "A"}
        # as_dict returns a copy.
        element.as_dict()["name"] = "other"
        assert element.get("name") == "Jack"

    def test_with_updates_merges(self):
        element = wme(name="Jack", team="A")
        assert element.with_updates({"team": "B"}) == {
            "name": "Jack",
            "team": "B",
        }
        # Original is untouched (WMEs are immutable).
        assert element.get("team") == "A"

    def test_same_content_ignores_time_tag(self):
        a = wme(tag=1, name="Jack")
        b = wme(tag=9, name="Jack")
        assert a.same_content(b)
        assert a != b  # equality includes the time tag

    def test_equality_and_hash(self):
        a = wme(tag=3, name="Jack")
        b = WME("player", {"name": "Jack"}, 3)
        assert a == b
        assert hash(a) == hash(b) == a.time_tag == 3

    def test_content_equal_wmes_are_distinct_dict_members(self):
        # Working memory is a multiset: same content, different tags.
        first, second = wme(tag=1, name="Mike"), wme(tag=2, name="Mike")
        members = {first: "first", second: "second"}
        assert len(members) == 2
        assert (members[first], members[second]) == ("first", "second")
        assert members[WME("player", {"name": "Mike"}, 2)] == "second"

    def test_rejects_non_value_attribute(self):
        with pytest.raises(WorkingMemoryError):
            WME("player", {"name": [1, 2]}, 1)
        with pytest.raises(WorkingMemoryError):
            WME("player", {3: "x"}, 1)

    def test_every_construction_path_admits_only_symbols_and_numbers(self):
        """No WME holds a value outside ``str``/``int``/``float``, so every
        value the Rete indexes file or probe is hashable; the indexes keep
        no fallback for one that is not."""
        for bad in ([5], {"a": 1}, None, True):
            wm = WorkingMemory()
            wm.make("c", k=1)
            attempts = {
                "make": lambda: wm.make("c", k=bad),
                "make_all": lambda: wm.make_all([("c", {"k": 1}),
                                                 ("c", {"k": bad})]),
                "restore": lambda: wm.restore("c", ("k",), (bad,), 99),
                "WME": lambda: WME("c", {"k": bad}, 99),
            }
            for path, attempt in attempts.items():
                with pytest.raises(WorkingMemoryError,
                                   match="must be a symbol or number"):
                    attempt()
            assert all(type(w.get("k")) is int for w in wm), bad

    def test_subclass_values_take_the_per_pair_check(self):
        class Atom(str):
            pass

        wm = WorkingMemory()
        made = wm.make_all([("c", {"k": Atom("x"), "n": 2.5})])
        assert made[0].get("k") == "x"
        with pytest.raises(WorkingMemoryError,
                           match=r"value for \^k must be .* got False"):
            wm.make_all([("c", {"k": False})])
        with pytest.raises(WorkingMemoryError,
                           match="attribute name must be a symbol, got 3"):
            wm.make_all([("c", {3: "x"})])

    def test_repr_contains_tag_and_class(self):
        text = repr(wme(tag=7, name="Jack"))
        assert "7" in text and "player" in text and "^name Jack" in text


#: Attribute names a generated fact draws from; some are left out of
#: each fact, so reads of absent attributes are exercised too.
_NAMES = ("a", "b", "c", "d", "e")
_VALUES = st.one_of(
    st.integers(-3, 3), st.sampled_from([0.0, 1.0, 2.5, -1.5]),
    st.sampled_from(["nil", "x", "y"]),
)


@st.composite
def _fact(draw):
    """An attribute dict in a random order, with its values."""
    names = draw(st.permutations(_NAMES))
    names = names[:draw(st.integers(0, len(_NAMES)))]
    return {name: draw(_VALUES) for name in names}


def _reference_repr(wme_class, values, tag):
    pairs = " ".join(f"^{a} {symbols.format_value(v)}"
                     for a, v in sorted(values.items()))
    return f"{tag}: ({f'{wme_class} {pairs}'.rstrip()})"


def _reference_hash(wme_class, values):
    return hash((wme_class, tuple(sorted(values.items()))))


class TestLayoutAgreesWithADict:
    """A WME made through working memory behaves as if it held its
    values in a plain dict, whatever order they were given in."""

    @given(st.lists(_fact(), min_size=1, max_size=6), _fact(),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_reads_compare_and_digest_like_a_dict(self, facts, updates,
                                                  rng):
        wm = WorkingMemory()
        made = wm.make_all([("k", values) for values in facts])
        for wme, values in zip(made, facts):
            for name in _NAMES:
                assert wme.get(name) == values.get(name, "nil")
            assert wme.attributes() == tuple(values)
            copy = wme.as_dict()
            assert copy == values and list(copy) == list(values)
            copy["a"] = "changed"
            assert wme.get("a") == values.get("a", "nil")
            merged = {**values, **updates}
            assert wme.with_updates(updates) == merged
            assert list(wme.with_updates(updates)) == list(merged)
            assert hash(wme) == wme.time_tag
            assert repr(wme) == _reference_repr("k", values, wme.time_tag)

            shuffled = list(values.items())
            rng.shuffle(shuffled)
            permuted = wm.make("k", **dict(shuffled))
            assert wme.same_content(permuted)
            assert wme == WME("k", dict(shuffled), wme.time_tag)
            assert wme != permuted  # a different time tag
            assert not wme.same_content(WME("k", dict(shuffled, a="z"), 0))
            assert not wme.same_content(WME("j", values, 0))
            wm.remove(permuted)

            replacement = wm.modify(wme, **updates)
            assert replacement.as_dict() == merged
            assert replacement.attributes() == tuple(merged)

        expected = sum(_reference_hash("k", {**values, **updates})
                       for values in facts) & ((1 << 64) - 1)
        assert wm.content_fingerprint() == (len(facts), expected)
        wm.enable_fingerprint()
        wm.make_all([("k", values) for values in facts])
        expected += sum(_reference_hash("k", values) for values in facts)
        assert wm.content_fingerprint() == (
            2 * len(facts), expected & ((1 << 64) - 1),
        )
