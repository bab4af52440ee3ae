"""Memoised lowered DFGs of mini-C sources.

This is the frontend half of the end-to-end compile cache (the backend half —
schedules, programs, configuration images — lives in
:mod:`repro.engine.cache`).  Entries are the optimized DFGs of
:func:`~repro.frontend.cparser.lower_c_kernel`, keyed by ``(source hash,
name)``, the source hash being :func:`repro.frontend.lexer.source_hash`.

DFGs are mutable, so :meth:`FrontendCache.dfg` hands out a fresh
:meth:`~repro.dfg.graph.DFG.copy` per call.  The cache is a bounded LRU
guarded by one lock, so sweep workers and multi-threaded callers can share
the process-wide default instance.

Invalidation is purely content-driven: there is nothing to invalidate
explicitly, because *any* source edit changes the hash and misses.
Repeating the old source later (e.g. an undo) hits again as long as the
entry has not been evicted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..dfg.graph import DFG
from .lexer import source_hash
from .cparser import lower_c_kernel


@dataclass
class FrontendCacheStats:
    """Hit/miss counters of the DFG cache."""

    dfg_hits: int = 0
    dfg_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.dfg_hits + self.dfg_misses

    def summary(self) -> str:
        """One-line hits/lookups rendering (the CLI ``cache --stats`` row)."""
        return f"DFGs {self.dfg_hits}/{self.lookups} hits"


class FrontendCache:
    """Bounded LRU cache of lowered mini-C DFGs.

    Parameters
    ----------
    capacity:
        Maximum entries.  The default comfortably holds every kernel of the
        benchmark library plus user kernels; sweeps touch a handful of
        distinct sources, so evictions are effectively never hit in
        practice.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("frontend cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = FrontendCacheStats()
        self._dfgs: "OrderedDict[Tuple[str, Optional[str]], DFG]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._dfgs)

    def clear(self) -> None:
        """Drop every cached DFG and reset the statistics."""
        with self._lock:
            self._dfgs.clear()
            self.stats = FrontendCacheStats()

    # ------------------------------------------------------------------
    def dfg(self, source: str, name: Optional[str] = None) -> DFG:
        """Optimized DFG of ``source`` — a fresh copy of the cached graph.

        The cached graph is keyed on ``(source hash, name)`` since both
        arguments change the lowered result; errors are never cached and
        re-raise on each call.
        """
        dfg_key = (source_hash(source), name)
        with self._lock:
            cached = self._dfgs.get(dfg_key)
            if cached is not None:
                self._dfgs.move_to_end(dfg_key)
                self.stats.dfg_hits += 1
            else:
                self.stats.dfg_misses += 1
        if cached is not None:
            # Copy outside the lock: the stored graph is never mutated, so
            # concurrent copies are safe and don't serialise other lookups.
            return cached.copy()
        dfg = lower_c_kernel(source, name=name)
        with self._lock:
            self._dfgs[dfg_key] = dfg
            while len(self._dfgs) > self.capacity:
                self._dfgs.popitem(last=False)
        return dfg.copy()


_DEFAULT_CACHE: Optional[FrontendCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_frontend_cache() -> FrontendCache:
    """The process-wide frontend cache shared by every ``parse_c_kernel``."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = FrontendCache()
        return _DEFAULT_CACHE
