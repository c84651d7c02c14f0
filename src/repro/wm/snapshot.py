"""Working-memory snapshots: persist and restore WM state.

Rule systems merging with databases want "concurrency control and
persistence as found in database systems" (paper §8).  This module
persists working memory: a JSON-compatible dump of every live WME
*with its time tag preserved*, so recency-based conflict resolution
behaves identically after a restore.  Matcher state, DIPS COND tables
included, is derived and rebuilt from the restored elements.

Restoring replays the elements oldest-first *in one batch* through the
set-oriented propagation path — attached matchers receive the whole
restore as a single net delta-set instead of one event per WME, so a
10k-element restore costs one network pass, not 10k.  Each element's
original time tag is pinned; the tag counter resumes past the highest
restored tag.
"""

from __future__ import annotations

import json

from repro.errors import WorkingMemoryError

FORMAT_VERSION = 1


def dump_wm(wm):
    """Serialise *wm* to a JSON-compatible dict."""
    return {
        "version": FORMAT_VERSION,
        "next_tag": wm.latest_time_tag + 1,
        "wmes": [
            {
                "class": wme.wme_class,
                "tag": wme.time_tag,
                "values": wme.as_dict(),
            }
            for wme in wm
        ],
    }


def restore_wm(wm, snapshot, stats=None):
    """Load a snapshot into *wm* (which must be empty).

    Works through :meth:`~repro.wm.memory.WorkingMemory.batch` +
    :meth:`~repro.wm.memory.WorkingMemory.ingest`: attached matchers
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
            f"unsupported WM snapshot version {version!r}"
        )
    entries = sorted(snapshot.get("wmes", ()), key=lambda e: e["tag"])
    restored = []
    with wm.batch(stats=stats):
        for entry in entries:
            restored.append(
                wm.ingest(entry["class"], entry["values"], entry["tag"])
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
