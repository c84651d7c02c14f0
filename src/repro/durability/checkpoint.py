"""Atomic checkpoints: snapshot + manifest, write-temp-then-rename.

A checkpoint is a directory ``checkpoint-%08d`` inside the WAL
directory holding:

* ``wm.json`` — the working-memory snapshot
  (:func:`repro.wm.snapshot.dump_wm`: each shape once, then one row
  per WME, time tags preserved).  Matcher
  state — Rete memories, DIPS COND tables on any storage backend — is
  derived, and recovery rebuilds it by replaying the snapshot through
  the batched propagation path;
* ``MANIFEST.json`` — everything recovery needs: format version,
  sequence number, the WAL position the snapshot corresponds to, the
  time-tag counter, the firing count, the matcher and strategy names,
  the program source (rebuilt from the live rule ASTs via the
  pretty-printer, so ``recover()`` can reload it), the refraction
  stamps of fired instantiations, the storage backend spec of a DIPS
  matcher not on the memory backend, and a CRC32 per member file.

Atomicity: members are written into ``checkpoint-N.tmp``, fsynced,
and the directory is renamed into place; only then is the ``CURRENT``
pointer file rewritten (same temp-then-rename).  A crash at any point
leaves either the old ``CURRENT`` naming an intact old checkpoint, or
the new one naming the new — never a half-written checkpoint in use.
After ``CURRENT`` moves, WAL segments below the checkpoint position
are truncated and checkpoints beyond the retention count pruned.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib

from repro.durability.wal import fsync_dir
from repro.errors import RecoveryError

MANIFEST_VERSION = 3
CHECKPOINT_PREFIX = "checkpoint-"
CURRENT_NAME = "CURRENT"
MANIFEST_NAME = "MANIFEST.json"
WM_SNAPSHOT_NAME = "wm.json"


def checkpoint_dirname(seq):
    return f"{CHECKPOINT_PREFIX}{seq:08d}"


def list_checkpoints(directory):
    """Sorted ``(seq, path)`` pairs of complete (renamed) checkpoints."""
    pairs = []
    for name in os.listdir(directory):
        if name.startswith(CHECKPOINT_PREFIX) and not name.endswith(".tmp"):
            stem = name[len(CHECKPOINT_PREFIX):]
            if stem.isdigit():
                pairs.append((int(stem), os.path.join(directory, name)))
    return sorted(pairs)


def _fsync_file(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint(directory, *, wm_snapshot, wal_position,
                     next_tag, program, matcher_name, strategy_name,
                     fired, cycle_count, reliability=None,
                     requests=None, fault=None, rdb_backend=None):
    """Write one atomic checkpoint; returns its directory path.

    The caller (the durability manager) is responsible for syncing the
    WAL up to *wal_position* first and for truncating/pruning after.
    *rdb_backend* records the storage backend spec so recovery rebuilds
    the matcher on the same kind of store.
    """
    if fault is not None:
        fault.hit("checkpoint.begin")
    existing = list_checkpoints(directory)
    seq = (existing[-1][0] + 1) if existing else 1
    name = checkpoint_dirname(seq)
    final_path = os.path.join(directory, name)
    tmp_path = final_path + ".tmp"
    if os.path.exists(tmp_path):
        shutil.rmtree(tmp_path)
    os.makedirs(tmp_path)

    files = {}

    def _write_member(member, payload):
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        path = os.path.join(tmp_path, member)
        with open(path, "wb") as handle:
            handle.write(data)
        _fsync_file(path)
        files[member] = zlib.crc32(data)

    _write_member(WM_SNAPSHOT_NAME, wm_snapshot)
    manifest = {
        "version": MANIFEST_VERSION,
        "seq": seq,
        "wal": list(wal_position),
        "next_tag": next_tag,
        "cycle_count": cycle_count,
        "matcher": matcher_name,
        "strategy": strategy_name,
        "program": program,
        # The rule-base version: runtime surgery (add/remove/replace)
        # changes the program text the manifest carries, and the hash
        # lets operators (and the service stats op) tell two tenants'
        # rule bases apart without diffing sources.
        "rule_base_version": rule_base_version(program),
        "fired": fired,
        "files": files,
    }
    if rdb_backend:
        manifest["rdb_backend"] = rdb_backend
    if reliability:
        manifest["reliability"] = reliability
    if requests:
        # The request-dedup journal ([key, response] pairs, insertion
        # order preserved): checkpointing truncates the WAL segments
        # that carried the journal records, so the manifest must carry
        # the live entries across the truncation.
        manifest["requests"] = requests
    manifest_data = json.dumps(manifest, separators=(",", ":"))
    manifest_path = os.path.join(tmp_path, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write(manifest_data)
    _fsync_file(manifest_path)
    if fault is not None:
        fault.hit("checkpoint.files")

    os.rename(tmp_path, final_path)
    fsync_dir(directory)
    if fault is not None:
        fault.hit("checkpoint.rename")

    _set_current(directory, name)
    if fault is not None:
        fault.hit("checkpoint.current")
    return final_path


def _set_current(directory, name):
    tmp = os.path.join(directory, CURRENT_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(name + "\n")
    _fsync_file(tmp)
    os.rename(tmp, os.path.join(directory, CURRENT_NAME))
    fsync_dir(directory)


def prune_checkpoints(directory, retain):
    """Remove old checkpoints, keeping *retain* and the CURRENT one.

    Also clears abandoned ``.tmp`` directories from crashed
    checkpoint attempts.  Returns the removed paths.
    """
    current = read_current(directory)
    removed = []
    checkpoints = list_checkpoints(directory)
    for seq, path in checkpoints[:-retain] if retain else checkpoints:
        if current is not None and os.path.basename(path) == current:
            continue
        shutil.rmtree(path)
        removed.append(path)
    for name in os.listdir(directory):
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(".tmp"):
            shutil.rmtree(os.path.join(directory, name))
    return removed


def read_current(directory):
    """The checkpoint directory name ``CURRENT`` points at, or None."""
    path = os.path.join(directory, CURRENT_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            name = handle.read().strip()
    except OSError:
        return None
    return name or None


class LoadedCheckpoint:
    """A validated checkpoint: manifest and parsed WM snapshot."""

    __slots__ = ("path", "manifest", "wm_snapshot")

    def __init__(self, path, manifest, wm_snapshot):
        self.path = path
        self.manifest = manifest
        self.wm_snapshot = wm_snapshot


def load_checkpoint(directory):
    """Load and validate the checkpoint ``CURRENT`` names, or None.

    Every member file is re-read and its CRC checked against the
    manifest before anything is trusted; a mismatch, missing member,
    or unreadable manifest raises
    :class:`~repro.errors.RecoveryError`.  Only ``wm.json`` is parsed:
    any other member (an older writer's copy of derived match state)
    is checked and then ignored.
    """
    name = read_current(directory)
    if name is None:
        return None
    path = os.path.join(directory, name)
    if not os.path.isdir(path):
        raise RecoveryError(
            f"CURRENT names {name!r} but no such checkpoint exists"
        )
    try:
        with open(os.path.join(path, MANIFEST_NAME),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise RecoveryError(
            f"checkpoint {name} has an unreadable manifest: {error}"
        ) from error
    if manifest.get("version") != MANIFEST_VERSION:
        raise RecoveryError(
            f"unsupported checkpoint manifest version "
            f"{manifest.get('version')!r}; this build reads version "
            f"{MANIFEST_VERSION} only"
        )
    wm_snapshot = None
    for member, crc in manifest.get("files", {}).items():
        member_path = os.path.join(path, member)
        try:
            with open(member_path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise RecoveryError(
                f"checkpoint {name} is missing member {member}: {error}"
            ) from error
        if zlib.crc32(data) != crc:
            raise RecoveryError(
                f"checkpoint {name} member {member} fails its CRC "
                f"(stored {crc}, computed {zlib.crc32(data)})"
            )
        if member == WM_SNAPSHOT_NAME:
            wm_snapshot = json.loads(data)
    if wm_snapshot is None:
        raise RecoveryError(
            f"checkpoint {name} has no {WM_SNAPSHOT_NAME} member"
        )
    return LoadedCheckpoint(path, manifest, wm_snapshot)


def checkpoint_size(path):
    """Bytes on disk of the checkpoint directory *path*'s members."""
    return sum(entry.stat().st_size for entry in os.scandir(path))


def rule_base_version(program):
    """Content hash of a program's source text (the rule-base version).

    Checkpoint manifests carry it so a recovered session can be
    audited against the rule base it is expected to run; the service
    layer uses the same function for per-tenant rule-base keys after a
    reload diverges a tenant from the shared cache entry.
    """
    return hashlib.sha256(
        (program or "").encode("utf-8")
    ).hexdigest()[:16]


def program_source(engine):
    """Rebuild loadable program text from an engine's live state.

    Literalize declarations come from the WM class registry, rules
    from the pretty-printer (``parse_rule(format_rule(r)) == r`` is a
    property-tested invariant), so a checkpoint can restore the rule
    base without the original source file.
    """
    from repro.lang.printer import format_rule

    lines = []
    registry = engine.wm.registry
    for wme_class in registry.declared_classes():
        attributes = " ".join(registry.attributes_of(wme_class))
        lines.append(f"(literalize {wme_class} {attributes})".rstrip())
    for rule in engine.rules.values():
        lines.append(format_rule(rule))
    return "\n".join(lines)
