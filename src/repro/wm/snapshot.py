"""Working-memory snapshots: persist and restore WM state.

Rule systems merging with databases want "concurrency control and
persistence as found in database systems" (paper §8).  This module
persists working memory: a JSON-compatible dump of every live WME
*with its time tag preserved*, so recency-based conflict resolution
behaves identically after a restore.  Matcher state, DIPS COND tables
included, is derived and rebuilt from the restored elements.

The dump is laid out as rows, like the WMEs themselves (format 2)::

    {"version": 2, "next_tag": 9,
     "shapes": [["player", ["name", "team"]], ...],
     "wmes": [[0, 3, "Jack", "A"], ...]}

Each distinct (class, attribute order) is written once under
``shapes``; a WME is ``[shape index, time tag, *values]``, its values
in that shape's order.  Any other version is refused: there is one
decoder.

Restoring replays the elements oldest-first *in one batch* through the
set-oriented propagation path — attached matchers receive the whole
restore as a single net delta-set instead of one event per WME, so a
10k-element restore costs one network pass, not 10k.  Each element's
original time tag is pinned; the tag counter resumes past the highest
restored tag.
"""

from __future__ import annotations

import json
from operator import itemgetter

from repro.errors import WorkingMemoryError

FORMAT_VERSION = 2


def dump_wm(wm):
    """Serialise *wm* to a JSON-compatible dict of shapes and rows."""
    shapes = []
    index_of = {}
    rows = []
    for wme in wm:
        key = (wme.wme_class, id(wme.shape))
        index = index_of.get(key)
        if index is None:
            index = index_of[key] = len(shapes)
            shapes.append([wme.wme_class, list(wme.shape)])
        rows.append([index, wme.time_tag, *wme.row[:-1]])
    return {
        "version": FORMAT_VERSION,
        "next_tag": wm.latest_time_tag + 1,
        "shapes": shapes,
        "wmes": rows,
    }


def restore_wm(wm, snapshot, stats=None):
    """Load a snapshot into *wm* (which must be empty).

    Works through :meth:`~repro.wm.memory.WorkingMemory.restore_all`,
    one batch of :meth:`~repro.wm.memory.WorkingMemory.restore`
    calls with the collector paused: attached matchers
    receive one set-oriented delta-set covering the whole restore, with
    every WME under its original time tag (monotone by construction,
    since the dump is tag-ordered).
    """
    if len(wm):
        raise WorkingMemoryError(
            "restore_wm needs an empty working memory"
        )
    version = snapshot.get("version")
    if version != FORMAT_VERSION:
        raise WorkingMemoryError(
            f"unsupported WM snapshot version {version!r}; this build "
            f"reads version {FORMAT_VERSION} only"
        )
    shapes = [
        (wme_class, tuple(attributes))
        for wme_class, attributes in snapshot["shapes"]
    ]
    rows = sorted(snapshot["wmes"], key=itemgetter(1))
    restored = wm.restore_all(
        ((*shapes[row[0]], row[2:], row[1]) for row in rows), stats
    )
    wm._next_tag = max(wm._next_tag, snapshot.get("next_tag", 1))
    return restored


def save_wm(wm, path):
    """Write a JSON snapshot of *wm* to *path*."""
    snapshot = dump_wm(wm)
    with open(path, "w") as handle:
        json.dump(snapshot, handle)
    return snapshot


def load_wm(wm, path):
    """Restore *wm* (empty) from a snapshot file."""
    with open(path) as handle:
        snapshot = json.load(handle)
    return restore_wm(wm, snapshot)
