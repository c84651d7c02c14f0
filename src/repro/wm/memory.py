"""Working memory proper: class registry, the WME multiset, observers."""

from __future__ import annotations

import gc
import threading

from repro import symbols
from repro.errors import AppendRefused, WorkingMemoryError
from repro.wm.events import ADD, REMOVE, DeltaBatch, WMEvent
from repro.wm.wme import (
    NIL, PLAIN_TYPES, SYMBOL_TYPES, WME, check_values, shape_of,
)

#: Width of the incremental content fingerprint (sum of per-WME content
#: hashes modulo 2**64, order-independent by construction).
_FP_MASK = (1 << 64) - 1

_new = object.__new__
_plain = PLAIN_TYPES.issuperset

#: The most row shapes a registry caches.  Past it a fact over an
#: uncached attribute order gets a shape of its own, as a WME made
#: directly does, so a session that keeps inventing classes or
#: attribute orders cannot grow the cache without bound.
SHAPE_LIMIT = 512


#: Makes a pause's read of the collector's state and its switch-off one
#: step with respect to another thread's resume: read apart, a pause
#: could read "off" while another pause ends, then switch the collector
#: off after that one switched it back on, and leave it off for good.
#: Taken with acquire/release, not ``with``, which allocates (a bound
#: ``__exit__``, an argument tuple) and so could itself start a
#: collection on the edge of a pause.
_collector_lock = threading.Lock()


def pause_collector(size=None):
    """Switch CPython's cyclic collector off for a set-sized step; return
    whether it was on, for :func:`resume_collector`.

    The collector fires on allocation counts, not on garbage: a
    delta-set allocates its facts, events and match state in one burst,
    so left on it runs many young and some full collections mid-set,
    and a full one walks the whole match state.  A firing builds no
    reference cycle, so a pause holds back no garbage the engine made.
    The switch is process-wide: another thread's pause may end this one
    early, which is harmless.

    A step whose *size* (deltas or members) is known and below the
    young generation's threshold is not paused: it starts at most one
    collection either way, so a pause would only add its own cost to
    every small flush and firing.
    """
    if size is not None and size < gc.get_threshold()[0]:
        return False
    _collector_lock.acquire()
    try:
        was = gc.isenabled()
        gc.disable()
    finally:
        _collector_lock.release()
    return was


def resume_collector(was):
    """Switch the collector back on if :func:`pause_collector` found it
    on; a caller that switched it off itself keeps it off."""
    if was:
        _collector_lock.acquire()
        try:
            gc.enable()
        finally:
            _collector_lock.release()


def _content_hash(wme):
    """Hash of a WME's *contents* (class + attribute values, no time tag)."""
    return hash((wme.wme_class, tuple(sorted(zip(wme.shape, wme.row)))))


class WMClassRegistry:
    """The ``literalize`` declarations of a program.

    ``(literalize player name team)`` declares a WME class ``player``
    with attributes ``name`` and ``team``.  The registry validates makes
    against declarations.  Programs may also run unchecked (no
    declarations at all), in which case any class/attribute is accepted —
    convenient for tests — but once a class is declared its attribute set
    is enforced, as OPS5 does.

    The registry also keeps its working memory's row shapes
    (:class:`~repro.wm.wme.WME`), checked against the declarations when
    they are made, at most :data:`SHAPE_LIMIT` of them; declaring a
    class drops the shapes cached for it.
    """

    def __init__(self):
        self._classes = {}
        #: Declared class -> frozenset of its attribute names, checked
        #: once per new shape and once per modify.
        self.attribute_sets = {}
        #: Class -> attribute-name tuple -> the shape every fact of that
        #: class made with those attributes in that order shares.
        self.shapes = {}
        self.shape_count = 0

    def keep_shape(self, wme_class, attributes, shape):
        """Cache *shape* for *wme_class* facts over *attributes*, unless
        the cache is full."""
        if self.shape_count < SHAPE_LIMIT:
            self.shapes.setdefault(wme_class, {})[attributes] = shape
            self.shape_count += 1

    def literalize(self, wme_class, attributes):
        """Declare *wme_class* with exactly *attributes*."""
        if not symbols.is_symbol(wme_class):
            raise WorkingMemoryError(
                f"class name must be a symbol, got {wme_class!r}"
            )
        attributes = tuple(attributes)
        for attribute in attributes:
            if not symbols.is_symbol(attribute):
                raise WorkingMemoryError(
                    f"attribute name must be a symbol, got {attribute!r}"
                )
        if len(set(attributes)) != len(attributes):
            raise WorkingMemoryError(
                f"duplicate attribute in literalize of {wme_class}"
            )
        existing = self._classes.get(wme_class)
        if existing is not None and existing != attributes:
            raise WorkingMemoryError(
                f"class {wme_class} already literalized with different "
                f"attributes"
            )
        self._classes[wme_class] = attributes
        self.attribute_sets[wme_class] = frozenset(attributes)
        # A shape made while the class was undeclared skipped the
        # declared-attribute check; the next fact re-makes it.
        self.shape_count -= len(self.shapes.pop(wme_class, ()))

    def is_declared(self, wme_class):
        return wme_class in self._classes

    def attributes_of(self, wme_class):
        """Return the declared attribute tuple (KeyError if undeclared)."""
        return self._classes[wme_class]

    def declared_classes(self):
        return tuple(self._classes)

    def validate(self, wme_class, values):
        """Check a make against the declarations; no-op for undeclared classes."""
        declared = self._classes.get(wme_class)
        if declared is None:
            return
        for attribute in values:
            if attribute not in declared:
                raise WorkingMemoryError(
                    f"class {wme_class} has no attribute ^{attribute} "
                    f"(declared: {', '.join(declared)})"
                )


class WorkingMemory:
    """The multiset of live WMEs, with make/remove/modify and observers.

    Time tags are assigned from a monotone counter shared by every make,
    so they order elements by recency — the property LEX/MEA conflict
    resolution and the S-node's token ordering rely on.

    Observers are callables receiving a :class:`WMEvent`; match networks
    register themselves here.  Events are delivered synchronously in
    registration order.

    ``batch()`` opens an atomic delta-set: mutations still apply to the
    WME multiset immediately (time tags stay monotone, ``find`` sees the
    change), but observer delivery is buffered in a :class:`DeltaBatch`
    log, flushed on exit with cancelling make/remove pairs netted out.
    Observers that registered a batch handler via
    ``attach(observer, on_batch=...)`` receive the whole net delta list
    in one call; plain observers get a per-event replay of the same net
    stream, so both views agree on the resulting match state.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else WMClassRegistry()
        self._shapes = self.registry.shapes
        self._by_tag = {}
        self._next_tag = 1
        self._observers = []
        self._batch_handlers = {}
        self._batch = None
        self._batch_depth = 0
        self._batch_tag = None  # the tag counter where the batch opened
        self._fp = None  # incremental content fingerprint; None = off

    # -- observation ---------------------------------------------------

    def attach(self, observer, on_batch=None, prepend=False):
        """Register *observer* to receive every subsequent change event.

        *on_batch*, if given, is called with a list of net
        :class:`WMEvent` deltas whenever a ``batch()`` flushes, instead
        of replaying the batch to *observer* one event at a time.
        *prepend* delivers to this observer before previously attached
        ones — the durability log registers this way so a change is on
        disk before any matcher propagates it (write-ahead ordering).
        """
        if prepend:
            self._observers.insert(0, observer)
        else:
            self._observers.append(observer)
        if on_batch is not None:
            self._batch_handlers[observer] = on_batch

    def detach(self, observer):
        """Unregister *observer*; detaching one never attached (or
        already detached — a close() racing another close()) is a
        no-op, so teardown paths need not coordinate."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass
        self._batch_handlers.pop(observer, None)

    def _emit(self, sign, wme):
        if self._batch is not None:
            self._batch.record(sign, wme)
            return
        self._deliver((WMEvent(sign, wme),))

    def _deliver(self, events, batch=None):
        """Send *events* to every observer, whole to a batch handler
        when *batch* (the flushing :class:`DeltaBatch`) is given.  What
        the log refuses (:class:`~repro.errors.AppendRefused`) before
        any observer took it is undone, then the error propagates."""
        for taken, observer in enumerate(list(self._observers)):
            handler = batch is not None and self._batch_handlers.get(observer)
            try:
                if handler:
                    handler(events)
                else:
                    for event in events:
                        observer(event)
            except AppendRefused:
                if not taken and batch is not None:
                    self._undo(batch.rewind(0), self._batch_tag)
                elif not taken:
                    [event] = events
                    self._undo(((event.sign, event.wme),),
                               event.wme.time_tag if event.sign == ADD
                               else self._next_tag)
                raise

    # -- batching ------------------------------------------------------

    def batch(self, stats=None):
        """Context manager collecting mutations into one atomic delta-set.

        Re-entrant: nested ``batch()`` blocks extend the outermost batch,
        which flushes once when the outermost block exits (even on
        exception — mutations already applied are always reported).  A
        flush the write-ahead log refuses is undone whole: the multiset
        and the tag counter go back to where the outermost block opened.
        *stats* may be a :class:`~repro.engine.stats.MatchStats`; the
        flush reports submitted/net/coalesced delta counts to it.
        """
        return _BatchScope(self, stats)

    @property
    def in_batch(self):
        return self._batch is not None

    def _enter_batch(self):
        if self._batch_depth == 0:
            self._batch = DeltaBatch()
            self._batch_tag = self._next_tag
        self._batch_depth += 1

    def _exit_batch(self, stats=None):
        self._batch_depth -= 1
        if self._batch_depth > 0:
            return
        batch, self._batch = self._batch, None
        events = batch.events()
        was = pause_collector(len(events))
        try:
            if events:
                self._deliver(events, batch)
        finally:
            resume_collector(was)
        if stats is not None:
            submitted = batch.submitted
            stats.batch_flush(submitted, len(events), submitted - len(events))

    # -- transactions --------------------------------------------------

    def begin_transaction(self):
        """Open a rollback scope over subsequent mutations.

        Mutations apply to the multiset immediately (as inside
        ``batch()``, which this nests with) but observer delivery is
        deferred; the returned opaque savepoint feeds either
        :meth:`commit_transaction` — flush and deliver as usual — or
        :meth:`rollback_transaction` — undo every mutation since this
        call so neither the multiset nor any observer ever saw them.
        The atomic-firing layer (:mod:`repro.engine.reliability`) wraps
        each RHS in one of these.
        """
        self._enter_batch()
        return (self._next_tag, self._batch.mark())

    def commit_transaction(self, savepoint, stats=None):
        """Close the scope opened by :meth:`begin_transaction`, keeping
        its mutations (flushed to observers once the outermost batch
        exits)."""
        self._exit_batch(stats)

    def rollback_transaction(self, savepoint, stats=None):
        """Undo every mutation since the matching :meth:`begin_transaction`.

        The batch's delta log is truncated back to the savepoint, the
        inverse of each dropped delta is applied to the WME multiset
        (newest first), and the time-tag counter is restored —
        afterwards working memory is byte-identical to the savepoint and
        no observer ever heard of the rolled-back mutations.
        """
        next_tag, batch_mark = savepoint
        self._undo(self._batch.rewind(batch_mark), next_tag)
        self._exit_batch(stats)

    def _undo(self, undone, next_tag):
        """Apply the inverse of each ``(sign, wme)`` of *undone* (newest
        first) and put the tag counter back at *next_tag*: the undo of a
        rollback, a refused flush and a refused single change."""
        for sign, wme in undone:
            if sign == ADD:
                del self._by_tag[wme.time_tag]
                if self._fp is not None:
                    self._fp = (self._fp - _content_hash(wme)) & _FP_MASK
            else:
                self._by_tag[wme.time_tag] = wme
                if self._fp is not None:
                    self._fp = (self._fp + _content_hash(wme)) & _FP_MASK
        self._next_tag = next_tag

    # -- inspection ----------------------------------------------------

    def __len__(self):
        return len(self._by_tag)

    def __iter__(self):
        """Iterate live WMEs in time-tag (creation) order."""
        return iter(sorted(self._by_tag.values(), key=lambda w: w.time_tag))

    def __contains__(self, wme):
        return isinstance(wme, WME) and self._by_tag.get(wme.time_tag) is wme

    def get(self, time_tag):
        """Return the live WME with *time_tag*, or None."""
        return self._by_tag.get(time_tag)

    def of_class(self, wme_class):
        """Return live WMEs of *wme_class*, in time-tag order."""
        members = [w for w in self._by_tag.values()
                   if w.wme_class == wme_class]
        return sorted(members, key=lambda w: w.time_tag)

    def find(self, wme_class, **values):
        """Return live WMEs of *wme_class* whose attributes equal *values*."""
        return [
            w
            for w in self.of_class(wme_class)
            if all(
                symbols.values_equal(w.get(attr), val)
                for attr, val in values.items()
            )
        ]

    @property
    def latest_time_tag(self):
        """The most recently assigned time tag (0 when nothing was made)."""
        return self._next_tag - 1

    def content_fingerprint(self):
        """An order-independent digest of current WME *contents*.

        Returns ``(count, digest)`` where *digest* sums the per-WME
        content hashes (class + values, time tags excluded) modulo
        2**64.  Two memories with equal multisets of contents — however
        the elements were created — fingerprint equal.  The livelock
        watchdog compares these across firings, where tag-based
        comparison would always differ (``modify`` re-tags).

        :meth:`enable_fingerprint` makes subsequent calls O(1); without
        it each call scans the multiset.
        """
        if self._fp is not None:
            return (len(self._by_tag), self._fp)
        total = 0
        for wme in self._by_tag.values():
            total = (total + _content_hash(wme)) & _FP_MASK
        return (len(self._by_tag), total)

    def enable_fingerprint(self):
        """Maintain :meth:`content_fingerprint` incrementally from now on."""
        if self._fp is None:
            total = 0
            for wme in self._by_tag.values():
                total = (total + _content_hash(wme)) & _FP_MASK
            self._fp = total

    # -- mutation ------------------------------------------------------

    def _check(self, wme_class, updates):
        """Refuse a modify's *updates* for a *wme_class* element unless
        its declared attributes and the value domain admit them."""
        declared = self.registry.attribute_sets.get(wme_class)
        if declared is not None and not declared.issuperset(updates):
            self.registry.validate(wme_class, updates)  # raises, naming it
        check_values(updates, names_declared=declared is not None)

    def _live_members(self, wmes):
        """*wmes* as a list, refused unless each is a distinct live
        element."""
        wmes = list(wmes)
        dead = [w for w in wmes if self._by_tag.get(w.time_tag) is not w]
        if dead or len({w.time_tag for w in wmes}) != len(wmes):
            raise WorkingMemoryError(
                f"WME {dead[0]!r} is not in working memory" if dead
                else "a WME is listed twice"
            )
        return wmes

    def _shape(self, wme_class, values):
        """A new shape for a *wme_class* fact over the attributes of the
        dict *values*, in their order, checked and then offered to the
        cache: the class and attribute names must be symbols, and the
        names declared for the class if it is."""
        if not symbols.is_symbol(wme_class):
            raise WorkingMemoryError(
                f"class name must be a symbol, got {wme_class!r}"
            )
        declared = self.registry.attribute_sets.get(wme_class)
        if declared is not None and not declared.issuperset(values):
            self.registry.validate(wme_class, values)  # raises, naming it
        if not SYMBOL_TYPES.issuperset(map(type, values)):
            check_values(values)  # raises for the first offending pair
        attributes = tuple(values)
        shape = shape_of(attributes)
        self.registry.keep_shape(wme_class, attributes, shape)
        return shape

    def _merged_shape(self, wme_class, attributes):
        """The shape of a modified *wme_class* fact over *attributes*:
        its original's, then the new ones of the updates.  Nothing is
        checked again — the original's names were when it was made and
        :meth:`_check` passed the updates.  An original made before its
        class was declared may carry names the declaration lacks; a
        shape over those is not cached, since a later make would find
        it there unchecked."""
        try:
            return self._shapes[wme_class][attributes]
        except KeyError:
            pass
        shape = shape_of(attributes)
        declared = self.registry.attribute_sets.get(wme_class)
        if declared is None or declared.issuperset(attributes):
            self.registry.keep_shape(wme_class, attributes, shape)
        return shape

    def _stamp(self, wme_class, values, time_tag):
        """The per-fact construction path of ``make`` and ``make_all``:
        check the dict *values* — read, not kept — against the class's
        declared attribute set (once per shape) and the value domain,
        then :meth:`_file` the fact under *time_tag*.  A refused fact
        changes nothing."""
        try:
            shape = self._shapes[wme_class][tuple(values)]
        except (KeyError, TypeError):
            shape = self._shape(wme_class, values)
        row = (*values.values(), NIL)
        if not _plain(map(type, row)):
            check_values(values, names_declared=True)  # raises, naming it
        return self._file(wme_class, shape, row, time_tag)

    def _file(self, wme_class, shape, row, time_tag):
        """File a new WME over *shape* and *row* under *time_tag* and
        move the tag counter past it: the last step of :meth:`_stamp`
        and :meth:`restore`."""
        # WME.unchecked, inlined: this runs once per fact.
        wme = _new(WME)
        wme.wme_class = wme_class
        wme.shape = shape
        wme.row = row
        wme.time_tag = time_tag
        self._by_tag[time_tag] = wme
        self._next_tag = time_tag + 1
        if self._fp is not None:
            self._fp = (self._fp + _content_hash(wme)) & _FP_MASK
        return wme

    def make(self, wme_class, **values):
        """Create a WME, stamp it with the next time tag, emit ``+``."""
        wme = self._stamp(wme_class, values, self._next_tag)
        self._emit(ADD, wme)
        return wme

    def make_all(self, facts, stats=None):
        """Make every ``(wme_class, values)`` pair of *facts* as one
        batch; return the new WMEs in order.

        Same tags, contents and flushed events as a ``make`` loop inside
        ``batch()``, including on a refused fact: the ones before it
        stay made and the error propagates.  Each values dict is read,
        not kept.  One collector pause covers the stamping and, outside
        an open batch, the flush; *stats* is :meth:`batch`'s.
        """
        made = []
        stamp = self._stamp
        was = pause_collector()
        try:
            self._enter_batch()
            try:
                for wme_class, values in facts:
                    made.append(stamp(wme_class, values, self._next_tag))
            finally:
                record = self._batch.record
                for wme in made:
                    record(ADD, wme)
                self._exit_batch(stats)
        finally:
            resume_collector(was)
        return made

    def restore(self, wme_class, attributes, values, time_tag):
        """Re-create a *recorded* WME — a snapshot row or a logged
        delta — under its time tag, emit ``+``.

        *attributes* is a tuple of names and *values* theirs, in that
        order.  The names are not held to the class's declaration
        again: they were when the fact was made, and a fact made
        before its class was declared keeps names the declaration
        lacks through every later modify, so its shape is found the
        way a modify finds one.  The class name and the values are
        still checked.  The tag is pinned so recency ordering (and
        with it LEX/MEA conflict resolution) survives the round trip;
        tags must arrive strictly increasing, and the counter moves
        past each so later ``make`` calls stay monotone.
        """
        if time_tag < self._next_tag:
            raise WorkingMemoryError(
                f"cannot restore time tag {time_tag}: tags up to "
                f"{self._next_tag - 1} are already assigned"
            )
        if not symbols.is_symbol(wme_class):
            raise WorkingMemoryError(
                f"class name must be a symbol, got {wme_class!r}"
            )
        shape = self._merged_shape(wme_class, attributes)
        row = (*values, NIL)
        if not _plain(map(type, row)):
            check_values(dict(zip(attributes, values)))  # raises
        wme = self._file(wme_class, shape, row, time_tag)
        self._emit(ADD, wme)
        return wme

    def restore_all(self, records, stats=None):
        """:meth:`restore` every ``(wme_class, attributes, values,
        time_tag)`` of *records* as one batch, the collector paused as
        for :meth:`make_all`; return the WMEs in order.  *stats* is
        :meth:`batch`'s."""
        restore = self.restore
        was = pause_collector()
        try:
            with self.batch(stats):
                return [restore(*record) for record in records]
        finally:
            resume_collector(was)

    def remove(self, wme):
        """Remove a live WME (by object or time tag), emit ``-``."""
        if isinstance(wme, int):
            wme = self._by_tag.get(wme)
            if wme is None:
                raise WorkingMemoryError("no WME with that time tag is live")
        live = self._by_tag.get(wme.time_tag)
        if live is not wme:
            raise WorkingMemoryError(
                f"WME {wme!r} is not in working memory"
            )
        del self._by_tag[wme.time_tag]
        if self._fp is not None:
            self._fp = (self._fp - _content_hash(wme)) & _FP_MASK
        self._emit(REMOVE, wme)
        return wme

    def remove_all(self, wmes):
        """Remove every WME of *wmes* as one batch, in one pass: the
        contents, fingerprint and flushed events of a ``remove`` loop
        inside ``batch()``, but a dead or repeated member is refused
        before anything changes."""
        wmes = self._live_members(wmes)
        by_tag = self._by_tag
        with self.batch():
            record = self._batch.record
            for wme in wmes:
                del by_tag[wme.time_tag]
                record(REMOVE, wme)
            if self._fp is not None:
                for wme in wmes:
                    self._fp = (self._fp - _content_hash(wme)) & _FP_MASK
        return wmes

    def modify(self, wme, **updates):
        """OPS5 modify: remove *wme*, re-make it with *updates* applied.

        The replacement receives a fresh time tag (it is the most recent
        element afterwards), exactly as OPS5 specifies.  Refused
        *updates* leave *wme* in place.
        """
        if isinstance(wme, int):
            resolved = self._by_tag.get(wme)
            if resolved is None:
                raise WorkingMemoryError("no WME with that time tag is live")
            wme = resolved
        if self._by_tag.get(wme.time_tag) is not wme:
            raise WorkingMemoryError(f"WME {wme!r} is not in working memory")
        self._check(wme.wme_class, updates)
        return self._replace((wme,), updates, self._emit)[0]

    def modify_all(self, wmes, updates):
        """Modify every WME of *wmes* by the dict *updates* as one batch,
        in one pass; return the replacements.  The tags, contents,
        fingerprint and flushed ``-w, +w'`` events of a ``modify`` loop
        inside ``batch()``, but the updates (once per class) and the
        members are checked before anything changes."""
        wmes = self._live_members(wmes)
        for wme_class in {wme.wme_class for wme in wmes}:
            self._check(wme_class, updates)
        was = pause_collector()
        try:
            with self.batch():
                return self._replace(wmes, updates, self._batch.record)
        finally:
            resume_collector(was)

    def _replace(self, wmes, updates, emit):
        """Swap each live WME of *wmes* for a copy with the checked
        *updates* under the next tag, emitting ``-w`` then ``+w'``.

        A copy keeps its original's shape when that carries every
        updated attribute, its row rewritten in place; otherwise it
        takes the shape of the merged attributes.  Its shape and row are
        worked out before its original leaves."""
        by_tag = self._by_tag
        items = updates.items()
        replacements = []
        for wme in wmes:
            shape = wme.shape
            row = [*wme.row]
            try:
                for attribute, value in items:
                    row[shape[attribute]] = value
            except KeyError:
                merged = wme.with_updates(updates)
                shape = self._merged_shape(wme.wme_class, tuple(merged))
                row = [*merged.values(), NIL]
            row = tuple(row)
            del by_tag[wme.time_tag]
            if self._fp is not None:
                self._fp = (self._fp - _content_hash(wme)) & _FP_MASK
            emit(REMOVE, wme)
            tag = self._next_tag
            replacement = by_tag[tag] = WME.unchecked(
                wme.wme_class, shape, row, tag
            )
            self._next_tag = tag + 1
            if self._fp is not None:
                self._fp = (self._fp + _content_hash(replacement)) & _FP_MASK
            emit(ADD, replacement)
            replacements.append(replacement)
        return replacements

    def clear(self):
        """Remove every live WME (emitting ``-`` for each, oldest first)."""
        for wme in list(self):
            self.remove(wme)


class _BatchScope:
    """Context manager returned by :meth:`WorkingMemory.batch`."""

    __slots__ = ("_wm", "_stats")

    def __init__(self, wm, stats):
        self._wm = wm
        self._stats = stats

    def __enter__(self):
        self._wm._enter_batch()
        return self._wm

    def __exit__(self, exc_type, exc, tb):
        self._wm._exit_batch(self._stats)
        return False
