"""Persistent, content-keyed sweep result store.

Sweep grids are the least incremental layer of an otherwise cache-everything
toolchain: re-running a Fig. 5/6 grid used to recompute every point, and a
killed run threw away everything it had already measured.  This module gives
:func:`repro.engine.sweep.run_sweep` the same durability the compile cache's
disk layer gives compilation:

* the **key** of a point is a content hash over everything its
  :class:`~repro.engine.sweep.SweepResult` depends on — the kernel name, the
  kernel's DFG content hash (:func:`~repro.engine.cache.dfg_content_hash`,
  so editing a kernel invalidates its rows), the *resolved* overlay spec
  (depth/fixed filled in for this kernel, so ``depth=None`` auto sizing and
  the equivalent explicit depth share an entry) and the sim spec.  Runner
  knobs (``jobs``, ``retries``, ``timeout_s``) are deliberately not part of
  the key: they change how a row is obtained, never what it contains;
* the **value** is one JSON file per point under ``root``, carrying the key,
  the identifying specs (for debuggability — every entry is self-describing)
  and the flat result row.  Writes are atomic (temp file + ``os.replace``),
  so a killed run never leaves a truncated entry behind and a concurrent
  reader only ever sees complete files;
* **resume is just re-running**: a grid executed against a store only
  simulates points whose key has no entry, so an interrupted sweep picks up
  exactly where it died and an unchanged grid is pure lookups.  A process
  derives each point's key once (library kernels and FU variants do not
  change while it runs), so a repeated pass pays only for reading entries.

Rows synthesised by the fault-tolerant runner (quarantined worker deaths,
timeouts) are *never* stored — they describe the environment of one run, not
the point — so a resume always retries them.  Infeasible points
(``SweepResult.error`` set by :func:`~repro.engine.sweep.run_point`) are
deterministic properties of the grid point and are stored like any other row.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..kernels.library import get_kernel
from .cache import dfg_content_hash, write_atomic
from .sweep import SweepResult

#: Bumped when the entry layout changes; mismatching entries read as misses.
STORE_VERSION = 2

#: Sweep points whose store key one process keeps (least recently used first).
KEY_MEMO_POINTS = 1 << 14


@dataclass
class StoreStats:
    """Lookup/write accounting of one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that existed but could not be used (unreadable, truncated by
    #: an unclean filesystem, wrong version, key mismatch, unknown or
    #: mistyped row fields) — counted inside ``misses``.
    corrupt: int = 0


@dataclass
class StoreKey:
    """The content identity of one sweep point (what its row depends on)."""

    kernel: str
    dfg_hash: str
    overlay: Dict[str, object]
    sim: Dict[str, object]

    def digest(self) -> str:
        payload = json.dumps(
            {
                "kernel": self.kernel,
                "dfg": self.dfg_hash,
                "overlay": self.overlay,
                "sim": self.sim,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class ResultStore:
    """One-file-per-point persistent sweep result store.

    Layout: ``root/<kernel>-<variant>-<digest>.json`` — human-greppable names
    with a content digest making collisions impossible.  The store is safe to
    share between concurrent sweep runs: writes are atomic renames and
    entries are immutable by construction (same key ⇒ same row, modulo
    wall-clock fields).
    """

    def __init__(self, root: str):
        self.root = root
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    def key_for(self, point) -> str:
        """The content key of one :class:`~repro.engine.sweep.SweepPoint`.

        Resolves the overlay spec against the kernel's DFG (auto-sized
        depth, variant-following ``fixed``), so specs that build the same
        overlay share the entry, and hashes the DFG content so a kernel
        edit invalidates exactly that kernel's rows.  The key depends only
        on the point, so each process derives it once per point.
        """
        return _point_key(point)

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: str, point):
        """The stored :class:`~repro.engine.sweep.SweepResult`, or ``None``.

        ``point`` (the :class:`~repro.engine.sweep.SweepPoint` ``key`` was
        computed for) names the entry file, which is opened once.  A missing
        file is a miss; anything else unusable — an entry that cannot be
        read, truncated JSON, layout-version or key mismatch, unknown or
        mistyped row fields — is a corrupt miss, never an error: the point
        is simply re-simulated and the entry rewritten.
        """
        try:
            entry = _read_entry(self._filename(key, point))
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            return None
        if entry is None or entry[0] != key:
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return entry[1]

    def put(self, key: str, point, result) -> None:
        """Persist one computed row atomically (temp file + rename).

        Best-effort like the compile cache's disk layer: a full or read-only
        filesystem must never break the sweep that produced the row.
        """
        entry = {
            "version": STORE_VERSION,
            "key": key,
            "point": {
                "kernel": point.kernel,
                "overlay": point.overlay.to_dict(),
                "sim": point.sim.to_dict(),
            },
            "result": result.as_row(),
        }
        text = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        try:
            write_atomic(self._filename(key, point), text)
        except OSError:
            return
        self.stats.writes += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entry_paths())

    def entry_paths(self) -> List[str]:
        """Every complete entry file currently in the store."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def results(self) -> Iterator["object"]:
        """Every readable stored row, in entry-path order (calibration feed).

        A generator: the directory is listed when iteration starts, and each
        entry file is read as the caller reaches it, so a caller that never
        iterates (a closed-form model's ``fit``) reads nothing.
        Unreadable or version-mismatched entries are skipped silently (the
        caller is fitting a model, not resuming a grid — missing rows only
        shrink the fit).  Lookup stats are untouched.
        """
        for path in self.entry_paths():
            try:
                entry = _read_entry(path)
            except (FileNotFoundError, NotADirectoryError):
                continue  # removed since the listing
            if entry is not None:
                yield entry[1]

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path in self.entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        return removed

    # ------------------------------------------------------------------
    def _filename(self, key: str, point) -> str:
        return os.path.join(
            self.root, f"{point.kernel}-{point.overlay.variant}-{key}.json"
        )


@functools.lru_cache(maxsize=KEY_MEMO_POINTS)
def _point_key(point) -> str:
    """The store key of ``point``, derived once per process (see
    :meth:`ResultStore.key_for`)."""
    dfg = get_kernel(point.kernel)
    return StoreKey(
        kernel=point.kernel,
        dfg_hash=dfg_content_hash(dfg),
        overlay=point.overlay.resolve(dfg).to_dict(),
        sim=point.sim.to_dict(),
    ).digest()


def _read_entry(path: str) -> Optional[Tuple[object, SweepResult]]:
    """``(stored key, SweepResult)`` of one entry file, or ``None`` when the
    file is unreadable, truncated, of another layout version or carries
    unknown, missing or mistyped row fields.  Raises
    :class:`FileNotFoundError` (or :class:`NotADirectoryError`, for a root
    that is a file) when there is no entry."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (FileNotFoundError, NotADirectoryError):
        raise
    except (OSError, ValueError):
        return None
    if (
        not isinstance(entry, dict)
        or entry.get("version") != STORE_VERSION
        or not isinstance(entry.get("result"), dict)
    ):
        return None
    result = SweepResult.from_row(entry["result"])
    return None if result is None else (entry.get("key"), result)
