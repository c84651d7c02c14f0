"""WorkingMemory.batch(): buffering, netting, and observer delivery;
make_all against the make loop it replaces."""

import errno
import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RuleEngine
from repro.engine.stats import MatchStats
from repro.errors import AppendRefused, FiringError, WorkingMemoryError
from repro.wm.events import ADD, REMOVE, DeltaBatch, WMEvent
from repro.wm.memory import WorkingMemory
from repro.wm.snapshot import dump_wm, restore_wm
from repro.wm.wme import WME


def _wme(tag, **values):
    return WME("thing", values, tag)


class TestDeltaBatch:
    def test_records_in_order(self):
        batch = DeltaBatch()
        a, b = _wme(1), _wme(2)
        batch.record(ADD, a)
        batch.record(ADD, b)
        batch.record(REMOVE, a)
        events = batch.events()
        assert [(e.sign, e.wme) for e in events] == [(ADD, b)]
        assert batch.submitted == 3
        assert batch.coalesced == 2
        assert len(batch) == 1

    def test_remove_of_preexisting_wme_survives(self):
        batch = DeltaBatch()
        old = _wme(1)
        batch.record(REMOVE, old)
        assert [(e.sign, e.wme) for e in batch.events()] == [(REMOVE, old)]
        assert batch.coalesced == 0

    def test_stable_order_around_tombstones(self):
        batch = DeltaBatch()
        a, b, c = _wme(1), _wme(2), _wme(3)
        batch.record(ADD, a)
        batch.record(ADD, b)
        batch.record(REMOVE, b)
        batch.record(ADD, c)
        assert [(e.sign, e.wme) for e in batch.events()] == [
            (ADD, a), (ADD, c)
        ]


class _EagerDeltaBatch:
    """Reference netting: a ``-`` for a WME whose ``+`` is buffered
    tombstones the pair in place, and an undo journal rewinds it."""

    def __init__(self):
        self.deltas = []  # (sign, wme), or None for a cancelled add
        self.pending_adds = {}  # wme -> index into deltas
        self.ops = []  # ("delta", sign, wme) or ("cancel", index, wme)
        self.submitted = 0
        self.coalesced = 0

    def record(self, sign, wme):
        self.submitted += 1
        if sign == REMOVE and wme in self.pending_adds:
            index = self.pending_adds.pop(wme)
            self.deltas[index] = None
            self.coalesced += 2
            self.ops.append(("cancel", index, wme))
            return
        if sign == ADD:
            self.pending_adds[wme] = len(self.deltas)
        self.deltas.append((sign, wme))
        self.ops.append(("delta", sign, wme))

    def mark(self):
        return len(self.ops)

    def rewind(self, mark):
        undone = []
        while len(self.ops) > mark:
            kind, key, wme = self.ops.pop()
            if kind == "delta":
                self.deltas.pop()
                if key == ADD:
                    del self.pending_adds[wme]
                undone.append((key, wme))
            else:
                self.deltas[key] = (ADD, wme)
                self.pending_adds[wme] = key
                self.coalesced -= 2
                undone.append((REMOVE, wme))
            self.submitted -= 1
        return undone

    def events(self):
        return [entry for entry in self.deltas if entry is not None]


#: One step of a batch: make a fresh WME, remove a live one, take a
#: savepoint, or rewind to one; the integer picks the member or mark.
_batch_steps = st.lists(
    st.tuples(st.sampled_from(["make", "remove", "mark", "rewind"]),
              st.integers(0, 1000)),
    max_size=60,
)


class TestDeltaLogNetting:
    """The log nets at flush exactly as in-place netting did."""

    @given(st.integers(0, 5), _batch_steps)
    @settings(max_examples=300, deadline=None)
    def test_matches_eager_netting(self, preexisting, steps):
        batch, reference = DeltaBatch(), _EagerDeltaBatch()
        # Working-memory rules: makes take the next id, removes take a
        # live id, and a rewind restores the id counter and the live
        # set, so ids made after the savepoint are reused.
        live = list(range(preexisting))
        next_id = preexisting
        marks = []
        for step, pick in steps:
            if step == "make":
                batch.record(ADD, next_id)
                reference.record(ADD, next_id)
                live.append(next_id)
                next_id += 1
            elif step == "remove" and live:
                wme = live.pop(pick % len(live))
                batch.record(REMOVE, wme)
                reference.record(REMOVE, wme)
            elif step == "mark":
                marks.append(
                    (batch.mark(), reference.mark(), next_id, list(live))
                )
            elif step == "rewind" and marks:
                del marks[pick % len(marks) + 1:]
                mark, reference_mark, next_id, live = marks[-1]
                live = list(live)
                assert batch.rewind(mark) == reference.rewind(reference_mark)
            net = batch.events()
            assert [(e.sign, e.wme) for e in net] == reference.events()
            assert batch.submitted == reference.submitted
            assert len(batch) == len(net)
            assert batch.coalesced == reference.coalesced
            if reference.coalesced == 0:
                assert net is batch._log

    def test_events_is_the_log_without_removes_or_adds(self):
        adds, removes = DeltaBatch(), DeltaBatch()
        for tag in range(3):
            adds.record(ADD, _wme(tag))
            removes.record(REMOVE, _wme(tag))
        assert adds.events() is adds._log
        assert removes.events() is removes._log


class TestWorkingMemoryBatch:
    def test_mutations_apply_immediately_events_deferred(self):
        wm = WorkingMemory()
        seen = []
        wm.attach(seen.append)
        with wm.batch():
            wme = wm.make("thing", v=1)
            assert wme in wm
            assert len(wm) == 1
            assert seen == []
            assert wm.in_batch
        assert not wm.in_batch
        assert [(e.sign, e.wme) for e in seen] == [(ADD, wme)]

    def test_netting_cancels_make_remove_pair(self):
        wm = WorkingMemory()
        seen = []
        wm.attach(seen.append)
        with wm.batch():
            transient = wm.make("thing", v=1)
            keeper = wm.make("thing", v=2)
            wm.remove(transient)
        assert [(e.sign, e.wme) for e in seen] == [(ADD, keeper)]

    def test_time_tags_stay_monotone_inside_batch(self):
        wm = WorkingMemory()
        with wm.batch():
            first = wm.make("thing")
            second = wm.make("thing")
        assert second.time_tag == first.time_tag + 1

    def test_batch_handler_gets_net_list_plain_observer_gets_replay(self):
        wm = WorkingMemory()
        replayed = []
        batches = []
        wm.attach(replayed.append)
        wm.attach(lambda event: None, on_batch=batches.append)
        with wm.batch():
            a = wm.make("thing", v=1)
            b = wm.make("thing", v=2)
        assert len(batches) == 1
        assert [(e.sign, e.wme) for e in batches[0]] == [(ADD, a), (ADD, b)]
        assert [(e.sign, e.wme) for e in replayed] == [(ADD, a), (ADD, b)]

    def test_nested_batches_flush_once(self):
        wm = WorkingMemory()
        batches = []
        wm.attach(lambda event: None, on_batch=batches.append)
        with wm.batch():
            wm.make("thing", v=1)
            with wm.batch():
                wm.make("thing", v=2)
            assert batches == []
        assert len(batches) == 1
        assert len(batches[0]) == 2

    def test_exception_still_flushes_applied_mutations(self):
        wm = WorkingMemory()
        seen = []
        wm.attach(seen.append)
        with pytest.raises(RuntimeError):
            with wm.batch():
                wm.make("thing", v=1)
                raise RuntimeError("boom")
        assert len(seen) == 1
        assert len(wm) == 1

    def test_empty_batch_delivers_nothing(self):
        wm = WorkingMemory()
        batches = []
        wm.attach(lambda event: None, on_batch=batches.append)
        with wm.batch():
            pass
        assert batches == []

    def test_fully_cancelled_batch_delivers_nothing(self):
        wm = WorkingMemory()
        seen = []
        wm.attach(seen.append)
        with wm.batch():
            wm.remove(wm.make("thing", v=1))
        assert seen == []
        assert len(wm) == 0

    def test_modify_inside_batch_nets_to_single_add(self):
        wm = WorkingMemory()
        seen = []
        wm.attach(seen.append)
        with wm.batch():
            original = wm.make("thing", v=1)
            replacement = wm.modify(original, v=2)
        assert [(e.sign, e.wme) for e in seen] == [(ADD, replacement)]

    def test_detach_removes_batch_handler(self):
        wm = WorkingMemory()
        batches = []
        observer = lambda event: None  # noqa: E731
        wm.attach(observer, on_batch=batches.append)
        wm.detach(observer)
        with wm.batch():
            wm.make("thing")
        assert batches == []

    def test_errors_inside_batch_keep_wm_consistent(self):
        wm = WorkingMemory()
        with wm.batch():
            wme = wm.make("thing")
            wm.remove(wme)
            with pytest.raises(WorkingMemoryError):
                wm.remove(wme)

    def test_stats_counts_submitted_net_coalesced(self):
        wm = WorkingMemory()
        stats = MatchStats()
        with wm.batch(stats=stats):
            transient = wm.make("thing", v=1)
            wm.make("thing", v=2)
            wm.remove(transient)
        assert stats.totals["batches"] == 1
        assert stats.totals["batch_deltas_submitted"] == 3
        assert stats.totals["batch_deltas_net"] == 1
        assert stats.totals["deltas_coalesced"] == 2

    @staticmethod
    def _refusal():
        return AppendRefused(errno.ENOSPC, "log full")

    def test_a_refused_flush_is_undone_and_the_next_one_delivers(self):
        wm = WorkingMemory()
        refusals, flushed = [self._refusal()], []

        def refuse_once(events):
            if refusals:
                raise refusals.pop()
            flushed.append([(e.sign, e.wme.time_tag) for e in events])

        wm.attach(lambda event: None, on_batch=refuse_once)
        with pytest.raises(AppendRefused, match="log full"):
            with wm.batch():
                wm.make("thing", v=1)
                wm.make("thing", v=2)
        assert not wm.in_batch
        assert len(wm) == 0 and flushed == []
        with wm.batch():
            wm.make("thing", v=3)
        # The refused delta-set burned no time tag.
        assert flushed == [[(ADD, 1)]]

    def test_a_refused_single_change_is_undone(self):
        wm = WorkingMemory()
        seen, refuse = [], set()

        def log(event):
            if event.sign in refuse:
                refuse.clear()
                raise self._refusal()

        wm.attach(seen.append)
        wm.attach(log, prepend=True)
        kept = wm.make("thing", v=1)
        refuse.add(ADD)
        with pytest.raises(OSError):
            wm.make("thing", v=2)
        refuse.add(REMOVE)
        with pytest.raises(OSError):
            wm.remove(kept)
        assert list(wm) == [kept] and wm.latest_time_tag == 1
        assert [(e.sign, e.wme) for e in seen] == [(ADD, kept)]
        # A modify outside a batch is two changes: when its ``+w'`` is
        # refused, the ``-w`` every observer took stays applied.
        refuse.add(ADD)
        with pytest.raises(OSError):
            wm.modify(kept, v=5)
        assert len(wm) == 0 and wm.latest_time_tag == 1
        assert [(e.sign, e.wme) for e in seen] == [
            (ADD, kept), (REMOVE, kept),
        ]

    @pytest.mark.parametrize("took_it, error", [
        (True, AppendRefused(errno.ENOSPC, "log full")),
        (False, RuntimeError("observer down")),
    ])
    def test_only_a_refusal_before_delivery_is_undone(self, took_it, error):
        # A refusal after an observer took the flush, or any other
        # error, leaves the change applied: some observer may hold it.
        def fail(events):
            raise error

        wm = WorkingMemory()
        if took_it:
            wm.attach(lambda event: None, on_batch=lambda events: None)
        wm.attach(lambda event: None, on_batch=fail)
        with pytest.raises(type(error)):
            wm.make_all([("thing", {"v": 1}), ("thing", {"v": 2})])
        assert not wm.in_batch
        assert [w.time_tag for w in wm] == [1, 2]

    def test_event_equality_reexported(self):
        wme = _wme(1)
        assert WMEvent(ADD, wme) == WMEvent(ADD, wme)
        assert WMEvent(ADD, wme) != WMEvent(REMOVE, wme)


PROGRAM = """
(literalize order id qty)
(p big (order ^id <i> ^qty > 5) --> (write big <i>))
"""

#: Declared and undeclared classes, empty facts, int/float/symbol values.
FACTS = [
    ("order", {"id": "o1", "qty": 7}),
    ("note", {}),
    ("order", {"qty": 2.5, "id": "o2"}),
    ("note", {"text": "hi", "n": -1}),
    ("order", {"id": "o3", "qty": 9.0}),
]

#: Facts refused for four different reasons.
INVALID = [
    ("order", {"id": "o9", "colour": "red"}),  # undeclared attribute
    ("note", {"text": ["a"]}),  # value outside the domain
    ("note", {"flag": True}),  # bool is not a number
    ("note", {"n": None}),  # None is not nil
]


def _engine(flushed):
    engine = RuleEngine()
    engine.load(PROGRAM)
    engine.make("order", id="o0", qty=6)  # tags do not start at 1
    engine.wm.attach(lambda event: None, on_batch=flushed.append)
    return engine


def _make_loop(engine, facts):
    made = []
    with engine.batch():
        for wme_class, values in facts:
            made.append(engine.make(wme_class, **values))
    return made


def _state(engine, flushed):
    return (
        [(w.time_tag, w.wme_class, w.as_dict()) for w in engine.wm],
        engine.wm.latest_time_tag,
        [[(e.sign, e.wme) for e in batch] for batch in flushed],
        engine.run(),
        engine.output,
    )


class TestMakeAll:
    """``load_facts`` (``WorkingMemory.make_all``) against the ``make``
    loop it replaces."""

    def test_same_tags_contents_and_events_as_a_make_loop(self):
        bulk_flushed, loop_flushed = [], []
        bulk, loop = _engine(bulk_flushed), _engine(loop_flushed)
        made = bulk.load_facts(FACTS)
        expected = _make_loop(loop, FACTS)
        assert [w.time_tag for w in made] == [2, 3, 4, 5, 6]
        assert made == expected
        assert len(bulk_flushed) == 1
        assert _state(bulk, bulk_flushed) == _state(loop, loop_flushed)

    @pytest.mark.parametrize("bad", INVALID, ids=lambda fact: str(fact[1]))
    def test_invalid_fact_midway_stops_where_the_loop_stops(self, bad):
        facts = FACTS[:3] + [bad] + FACTS[3:]
        outcomes = []
        for run in ("bulk", "loop"):
            flushed = []
            engine = _engine(flushed)
            with pytest.raises(WorkingMemoryError) as raised:
                if run == "bulk":
                    engine.load_facts(facts)
                else:
                    _make_loop(engine, facts)
            outcomes.append((str(raised.value), _state(engine, flushed)))
        assert outcomes[0] == outcomes[1]
        _, (contents, latest, events, _, _) = outcomes[0]
        assert latest == 4 and len(contents) == 4
        assert [e for batch in events for e in batch][-1][1].time_tag == 4

    def test_rollback_leaves_working_memory_byte_identical(self):
        flushed = []
        engine = _engine(flushed)
        wm = engine.wm
        wm.enable_fingerprint()
        live = list(wm)
        before = (json.dumps(dump_wm(wm), sort_keys=True),
                  wm.content_fingerprint(), wm.latest_time_tag)
        savepoint = wm.begin_transaction()
        wm.make_all(FACTS)
        assert len(wm) == len(live) + len(FACTS)
        wm.rollback_transaction(savepoint)
        after = (json.dumps(dump_wm(wm), sort_keys=True),
                 wm.content_fingerprint(), wm.latest_time_tag)
        assert after == before
        assert [id(w) for w in wm] == [id(w) for w in live]
        assert flushed == [] and not wm.in_batch
        assert wm.make("note").time_tag == before[2] + 1

    def test_each_fact_owns_one_copy_of_its_values(self):
        engine = _engine([])
        values = {"id": "o1", "qty": 7}
        [wme] = engine.load_facts([("order", values)])
        values["qty"] = 0
        values["extra"] = "x"
        assert wme.as_dict() == {"id": "o1", "qty": 7}
        assert engine.run() == 2  # o0 and o1 still qualify

    def test_outside_a_batch_make_all_flushes_once(self):
        wm = WorkingMemory()
        batches = []
        wm.attach(lambda event: None, on_batch=batches.append)
        made = wm.make_all(FACTS)
        assert not wm.in_batch
        assert [[e.wme for e in batch] for batch in batches] == [made]
        assert wm.make_all([]) == [] and len(batches) == 1


#: The FACTS members a set action takes, deliberately not in tag order
#: and across a declared and an undeclared class.
MEMBERS = (4, 0, 2, 1)


def _loaded(flushed):
    """An engine over FACTS, its content fingerprint maintained, with
    nothing flushed yet; returns it and the chosen members."""
    engine = _engine(flushed)
    made = engine.load_facts(FACTS)
    engine.wm.enable_fingerprint()
    flushed.clear()
    return engine, [made[index] for index in MEMBERS]


def _set_state(engine, flushed):
    return (engine.wm.content_fingerprint(),) + _state(engine, flushed)


class TestModifyAllRemoveAll:
    """``set-modify``/``set-remove`` (``WorkingMemory.modify_all`` /
    ``remove_all``) against the loop inside ``batch()`` they replace."""

    def test_modify_all_same_as_a_modify_loop(self):
        bulk_flushed, loop_flushed = [], []
        bulk, bulk_members = _loaded(bulk_flushed)
        loop, loop_members = _loaded(loop_flushed)
        replaced = bulk.wm.modify_all(bulk_members, {"qty": 3})
        with loop.batch():
            expected = [loop.modify(w, qty=3) for w in loop_members]
        assert [w.time_tag for w in replaced] == [7, 8, 9, 10]
        assert replaced == expected
        assert len(bulk_flushed) == 1
        assert [e.sign for e in bulk_flushed[0]] == [REMOVE, ADD] * 4
        assert _set_state(bulk, bulk_flushed) == _set_state(
            loop, loop_flushed
        )

    def test_remove_all_same_as_a_remove_loop(self):
        bulk_flushed, loop_flushed = [], []
        bulk, bulk_members = _loaded(bulk_flushed)
        loop, loop_members = _loaded(loop_flushed)
        assert bulk.wm.remove_all(bulk_members) == bulk_members
        with loop.batch():
            for wme in loop_members:
                loop.remove(wme)
        assert [e.wme for e in bulk_flushed[0]] == bulk_members
        assert _set_state(bulk, bulk_flushed) == _set_state(
            loop, loop_flushed
        )

    @pytest.mark.parametrize("bad", [{"colour": "red"}, {"qty": ["a"]}],
                             ids=["undeclared-attribute", "list-value"])
    def test_refused_update_removes_nothing(self, bad):
        flushed = []
        engine, members = _loaded(flushed)
        before = _set_state(engine, flushed)
        engine, members = _loaded(flushed)
        with pytest.raises(WorkingMemoryError) as bulk:
            engine.wm.modify_all(members, bad)
        with pytest.raises(WorkingMemoryError) as single:
            engine.modify(members[0], **bad)  # an order: refused too
        assert str(bulk.value) == str(single.value)
        assert all(wme in engine.wm for wme in members)
        assert _set_state(engine, flushed) == before

    @pytest.mark.parametrize("action", ["modify_all", "remove_all"])
    def test_dead_or_repeated_member_is_refused_first(self, action):
        flushed = []
        engine, members = _loaded(flushed)
        engine.remove(members[2])
        flushed.clear()
        before = _set_state(engine, flushed)
        engine, members = _loaded(flushed)
        engine.remove(members[2])
        flushed.clear()
        call = getattr(engine.wm, action)
        extra = ({"qty": 3},) if action == "modify_all" else ()
        with pytest.raises(WorkingMemoryError, match="not in working memory"):
            call(members, *extra)
        live = members[:2] + members[3:]
        with pytest.raises(WorkingMemoryError, match="listed twice"):
            call(live + live[:1], *extra)
        assert all(wme in engine.wm for wme in live)
        assert _set_state(engine, flushed) == before


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run a test with the cyclic collector on, or switched off by the
    caller; yields the state every path must leave it in."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


SET_PROGRAM = """
(literalize item status value)
(literalize control phase)
(p process-all
  (control ^phase start)
  { [item ^status raw] <Items> }
  -->
  (set-modify <Items> ^status done)
  (call boom)
  (modify 1 ^phase finished))
"""


class TestCollectorPause:
    """A delta-set's stamping, set modify and flush run with CPython's
    cyclic collector off, and every path, raising ones too, leaves it
    as the caller had it."""

    def test_a_set_sized_flush_delivers_with_the_collector_off(
        self, collector,
    ):
        wm = WorkingMemory()
        seen = []
        wm.attach(lambda event: None,
                  on_batch=lambda events: seen.append(gc.isenabled()))
        wm.make_all(FACTS)  # make_all pauses whatever its size
        with wm.batch():
            for n in range(gc.get_threshold()[0]):
                wm.make("note", n=n)
        # Under the young generation's threshold a flush starts at most
        # one collection either way, so it is not paused.
        with wm.batch():
            wm.make("note")
        assert seen == [False, False, collector]
        assert gc.isenabled() is collector

    def test_plain_and_nested_batches(self, collector):
        wm = WorkingMemory()
        flushed = []
        wm.attach(lambda event: None, on_batch=flushed.append)
        with wm.batch():
            wm.make("note", n=1)
        assert gc.isenabled() is collector
        with wm.batch():
            with wm.batch():
                wm.make("note", n=2)
            assert gc.isenabled() is collector
            wm.make("note", n=3)
        assert len(flushed) == 2
        assert gc.isenabled() is collector

    def test_make_all_with_a_refused_fact_midway(self, collector):
        engine = _engine([])
        with pytest.raises(WorkingMemoryError):
            engine.load_facts(FACTS[:3] + [INVALID[0]] + FACTS[3:])
        assert len(engine.wm) == 4
        assert gc.isenabled() is collector

    def test_a_refused_flush_is_undone(self, collector):
        wm = WorkingMemory()

        def refuse(events):
            raise AppendRefused(errno.ENOSPC, "log full")

        wm.attach(lambda event: None, on_batch=refuse)
        savepoint = wm.begin_transaction()
        wm.make_all(FACTS)
        with pytest.raises(AppendRefused, match="log full"):
            wm.commit_transaction(savepoint)
        # No observer took the flush, so working memory undid it.
        assert not wm.in_batch
        assert len(wm) == 0
        assert gc.isenabled() is collector

    def test_an_rhs_error_in_a_set_modify_rolls_back(self, collector):
        engine = RuleEngine()
        engine.load(SET_PROGRAM)

        def boom():
            raise RuntimeError("rhs down")

        engine.register_function("boom", boom)
        engine.load_facts(  # a set-sized firing: paused as a whole
            ("item", {"status": "raw", "value": i})
            for i in range(gc.get_threshold()[0])
        )
        engine.make("control", phase="start")
        before = [(w.time_tag, w.as_dict()) for w in engine.wm]
        with pytest.raises(FiringError):
            engine.run()
        assert [(w.time_tag, w.as_dict()) for w in engine.wm] == before
        assert gc.isenabled() is collector

    def test_modify_all_and_restore_all(self, collector):
        engine, members = _loaded([])
        engine.wm.modify_all(members, {"qty": 1})
        assert gc.isenabled() is collector
        copy = WorkingMemory()
        restore_wm(copy, dump_wm(engine.wm))
        assert len(copy) == len(engine.wm)
        assert gc.isenabled() is collector
