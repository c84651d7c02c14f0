"""Unit tests for working memory: time tags, multiset semantics, events."""

import pytest

from repro import RuleEngine
from repro.errors import WorkingMemoryError
from repro.wm import WMClassRegistry, WorkingMemory
from repro.wm.events import ADD, REMOVE
from repro.wm.memory import SHAPE_LIMIT


class TestRegistry:
    def test_literalize_and_validate(self):
        registry = WMClassRegistry()
        registry.literalize("player", ["name", "team"])
        registry.validate("player", {"name": "Jack"})
        with pytest.raises(WorkingMemoryError):
            registry.validate("player", {"salary": 1})

    def test_undeclared_class_is_unchecked(self):
        registry = WMClassRegistry()
        registry.validate("anything", {"x": 1})  # no error

    def test_redeclaration_must_match(self):
        registry = WMClassRegistry()
        registry.literalize("player", ["name"])
        registry.literalize("player", ["name"])  # identical is fine
        with pytest.raises(WorkingMemoryError):
            registry.literalize("player", ["name", "team"])

    def test_duplicate_attribute_rejected(self):
        registry = WMClassRegistry()
        with pytest.raises(WorkingMemoryError):
            registry.literalize("player", ["name", "name"])


class TestWorkingMemory:
    def test_time_tags_are_monotone(self):
        wm = WorkingMemory()
        first = wm.make("a", x=1)
        second = wm.make("a", x=2)
        assert second.time_tag == first.time_tag + 1
        assert wm.latest_time_tag == second.time_tag

    def test_multiset_allows_identical_content(self):
        wm = WorkingMemory()
        a = wm.make("player", name="Sue")
        b = wm.make("player", name="Sue")
        assert a.same_content(b)
        assert len(wm) == 2

    def test_iteration_in_time_tag_order(self):
        wm = WorkingMemory()
        tags = [wm.make("a", i=i).time_tag for i in range(5)]
        assert [w.time_tag for w in wm] == tags

    def test_remove_by_object_and_by_tag(self):
        wm = WorkingMemory()
        a = wm.make("a", x=1)
        b = wm.make("a", x=2)
        wm.remove(a)
        wm.remove(b.time_tag)
        assert len(wm) == 0

    def test_remove_missing_raises(self):
        wm = WorkingMemory()
        a = wm.make("a", x=1)
        wm.remove(a)
        with pytest.raises(WorkingMemoryError):
            wm.remove(a)
        with pytest.raises(WorkingMemoryError):
            wm.remove(999)

    def test_modify_is_remove_plus_make_with_fresh_tag(self):
        wm = WorkingMemory()
        a = wm.make("player", name="Jack", team="A")
        b = wm.modify(a, team="B")
        assert b.time_tag > a.time_tag
        assert b.get("name") == "Jack"
        assert b.get("team") == "B"
        assert a not in wm
        assert b in wm

    def test_of_class_in_time_tag_order_after_rollback(self):
        wm = WorkingMemory()
        first = wm.make("item", n=1)
        other = wm.make("other", n=2)
        second = wm.make("item", n=3)
        savepoint = wm.begin_transaction()
        wm.remove(first)
        wm.rollback_transaction(savepoint)
        # The rollback re-filed the oldest WME after the others.
        assert list(wm._by_tag) == [other.time_tag, second.time_tag,
                                    first.time_tag]
        assert wm.of_class("item") == [first, second]
        assert wm.find("item", n=1) == [first]
        assert wm.of_class("other") == [other]
        assert wm.of_class("missing") == []

    def test_find_with_numeric_coercion(self):
        wm = WorkingMemory()
        wm.make("item", n=2)
        assert len(wm.find("item", n=2.0)) == 1

    def test_event_stream_order(self):
        wm = WorkingMemory()
        events = []
        wm.attach(lambda e: events.append((e.sign, e.wme.time_tag)))
        a = wm.make("a", x=1)
        wm.modify(a, x=2)
        assert events == [
            (ADD, 1),
            (REMOVE, 1),
            (ADD, 2),
        ]

    def test_detach_stops_events(self):
        wm = WorkingMemory()
        events = []
        observer = lambda e: events.append(e)
        wm.attach(observer)
        wm.make("a")
        wm.detach(observer)
        wm.make("a")
        assert len(events) == 1

    def test_clear_emits_removes(self):
        wm = WorkingMemory()
        for _ in range(3):
            wm.make("a")
        removes = []
        wm.attach(lambda e: removes.append(e.sign))
        wm.clear()
        assert removes == [REMOVE] * 3
        assert len(wm) == 0

    def test_declared_class_validation_on_make(self):
        wm = WorkingMemory()
        wm.registry.literalize("player", ["name"])
        with pytest.raises(WorkingMemoryError):
            wm.make("player", salary=3)


    @pytest.mark.parametrize("wme_class", [5, True, 2.5, ["a"], None])
    def test_class_name_must_be_a_symbol(self, wme_class):
        wm = WorkingMemory()
        attempts = {
            "make": lambda: wm.make(wme_class, x=1),
            "make_all": lambda: wm.make_all([(wme_class, {"x": 1})]),
            "restore": lambda: wm.restore(wme_class, ("x",), (1,), 5),
        }
        for path, attempt in attempts.items():
            with pytest.raises(WorkingMemoryError,
                               match="class name must be a symbol"):
                attempt()
        assert len(wm) == 0 and wm.latest_time_tag == 0

    def test_facts_of_one_class_and_order_share_a_shape(self):
        wm = WorkingMemory()
        first, second = wm.make_all([("a", {"x": 1, "y": 2}),
                                     ("a", {"x": 3, "y": 4})])
        assert first.shape is second.shape
        assert wm.make("a", y=1, x=2).shape is not first.shape
        assert wm.make("b", x=1, y=2).shape is not first.shape
        assert wm.modify(first, y=5).shape is first.shape
        widened = wm.modify(second, z=0)
        assert widened.attributes() == ("x", "y", "z")
        assert widened.shape is wm.make("a", x=0, y=0, z=0).shape

    def test_literalize_after_facts_still_checks_attributes(self):
        # Facts of a class made before it is declared (as when a later
        # engine.load literalizes it) must not let undeclared
        # attributes through afterwards.
        wm = WorkingMemory()
        wm.make("player", name="Sue", salary=3)
        wm.make_all([("player", {"name": "Ann"})])
        wm.registry.literalize("player", ["name", "team"])
        for attempt in (
            lambda: wm.make("player", name="Bo", salary=3),
            lambda: wm.make_all([("player", {"name": "Bo", "salary": 3})]),
        ):
            with pytest.raises(WorkingMemoryError, match=r"\^salary"):
                attempt()
        assert wm.make("player", name="Bo").get("name") == "Bo"
        assert len(wm) == 3

    @pytest.mark.parametrize("path", ["modify", "modify_all"])
    def test_modify_after_literalize_keeps_older_attributes(self, path):
        # Updating a declared attribute an older fact lacks re-makes it
        # with the attributes it already had; the widened shape is not
        # cached, so a make over it is still refused.
        wm = WorkingMemory()
        sue = wm.make("player", name="Sue", salary=3)
        wm.registry.literalize("player", ["name", "team"])
        events = []
        wm.attach(events.append)
        if path == "modify":
            new = wm.modify(sue, team="x")
        else:
            (new,) = wm.modify_all([sue], {"team": "x"})
        assert new.as_dict() == {"name": "Sue", "salary": 3, "team": "x"}
        assert list(wm) == [new]
        assert [(e.sign, e.wme) for e in events] == [
            (REMOVE, sue), (ADD, new)
        ]
        with pytest.raises(WorkingMemoryError, match=r"\^salary"):
            wm.make("player", name="Bo", salary=3, team="y")

    def test_shape_cache_is_bounded(self):
        # Facts over ever new attribute names, even retracted ones,
        # stop adding shapes once the cache is full; later facts are
        # still made, read and checked the same.
        wm = WorkingMemory()
        wm.registry.literalize("player", ["name"])
        for i in range(SHAPE_LIMIT + 50):
            wm.remove(wm.make(f"c{i % 7}", **{f"a{i}": i, "b": 1}))
        assert wm.registry.shape_count == SHAPE_LIMIT
        assert sum(map(len, wm.registry.shapes.values())) == SHAPE_LIMIT
        late = wm.make("c0", b=2, z=1)
        assert (late.get("b"), late.get("z"), late.get("a")) == (2, 1, "nil")
        assert wm.modify(late, y=5).as_dict() == {"b": 2, "z": 1, "y": 5}
        with pytest.raises(WorkingMemoryError, match=r"\^salary"):
            wm.make("player", name="Bo", salary=3)
        assert wm.registry.shape_count == SHAPE_LIMIT
        # Declaring a class frees its shapes' places.
        dropped = len(wm.registry.shapes["c3"])
        wm.registry.literalize("c3", ["b"])
        assert wm.registry.shape_count == SHAPE_LIMIT - dropped
        assert wm.make("c3", b=1).shape is wm.make("c3", b=2).shape


class TestRestore:
    def test_pins_historical_tag(self):
        wm = WorkingMemory()
        wme = wm.restore("a", ("x",), (1,), 7)
        assert (wme.time_tag, wme.as_dict()) == (7, {"x": 1})
        assert wm.make("a").time_tag == 8

    def test_emits_add_event(self):
        wm = WorkingMemory()
        events = []
        wm.attach(lambda e: events.append((e.sign, e.wme.time_tag)))
        wm.restore("a", (), (), 3)
        assert events == [(ADD, 3)]

    def test_refuses_non_monotone_tag(self):
        wm = WorkingMemory()
        wm.make("a")
        with pytest.raises(WorkingMemoryError, match="restore"):
            wm.restore("a", (), (), 1)

    def test_keeps_recorded_names_without_caching_their_shape(self):
        # A recorded fact may carry a name its class's later
        # declaration lacks (made before literalize, then widened by a
        # modify): it comes back as recorded, and its shape is not
        # offered to a later make.
        wm = WorkingMemory()
        wm.registry.literalize("player", ["name", "team"])
        bo = wm.restore("player", ("name", "salary", "team"),
                        ("Bo", 3, "x"), 1)
        assert bo.as_dict() == {"name": "Bo", "salary": 3, "team": "x"}
        with pytest.raises(WorkingMemoryError, match=r"\^salary"):
            wm.make("player", name="Al", salary=3, team="y")


class TestPrependObserver:
    def test_prepended_observer_sees_events_first(self):
        wm = WorkingMemory()
        order = []
        wm.attach(lambda e: order.append("matcher"))
        wm.attach(lambda e: order.append("wal"), prepend=True)
        wm.make("a")
        assert order == ["wal", "matcher"]

    def test_prepended_batch_handler_flushes_first(self):
        wm = WorkingMemory()
        order = []
        wm.attach(lambda e: order.append("matcher"),
                  on_batch=lambda es: order.append("matcher-batch"))
        wm.attach(lambda e: order.append("wal"),
                  on_batch=lambda es: order.append("wal-batch"),
                  prepend=True)
        with wm.batch():
            wm.make("a")
        assert order == ["wal-batch", "matcher-batch"]


class TestRefusedModify:
    """A ``modify`` whose updates are refused leaves everything as it
    was: the element, the conflict set and the content fingerprint."""

    PROGRAM = """
    (literalize order id qty)
    (p big (order ^id <i> ^qty > 5) --> (write big <i>))
    """

    @pytest.mark.parametrize("bad", [
        {"colour": "red"},  # undeclared attribute
        {"qty": [7]},  # value outside the domain
    ], ids=["undeclared-attribute", "list-value"])
    def test_refused_updates_change_nothing(self, bad):
        engine = RuleEngine()
        engine.load(self.PROGRAM)
        order = engine.make("order", id="o1", qty=6)
        engine.wm.enable_fingerprint()

        def state():
            return (
                list(engine.wm),
                engine.wm.latest_time_tag,
                engine.wm.content_fingerprint(),
                [(inst.rule.name, inst.recency_key())
                 for inst in engine.conflict_set.ordered(engine.strategy)],
            )

        before = state()
        with pytest.raises(WorkingMemoryError) as made:
            engine.make("order", **{"id": "o1", "qty": 6, **bad})
        with pytest.raises(WorkingMemoryError) as modified:
            engine.modify(order, **bad)
        assert str(modified.value) == str(made.value)
        assert order in engine.wm
        assert state() == before
        assert engine.run() == 1
        assert engine.output == ["big o1"]
