"""Compiled-schedule cache: compile once, run many.

The mapping flow (scheduling, register allocation, instruction generation,
configuration-image assembly) is deterministic in its inputs: the kernel DFG
and the overlay configuration.  Sweeps and multi-kernel runtimes repeat the
same (kernel, overlay) pairs constantly — Fig. 5/6/Table III regenerate the
same nine kernels on the same five variants over and over — so this module
memoises the compiled artifacts:

* the **key** is ``(kernel name, DFG content hash, FU variant, depth,
  fixed-depth flag, FIFO depth, scheduler strategy)``.  The DFG hash
  (:func:`repro.dfg.serialize.dfg_fingerprint`) covers the full node list
  (ids, opcodes, operands, names, constant values) via the canonical JSON
  serialization, so two structurally identical DFG copies hit the same entry
  while any edit — even to a constant — misses;
* the **value** is a :class:`CompiledKernel` bundling the schedule, the FU
  programs and the configuration image, exactly what
  :meth:`repro.runtime.manager.OverlayRuntime.register` produces;
* storage is a bounded in-memory **LRU** with an optional on-disk pickle
  layer (``disk_dir=...`` or the ``REPRO_CACHE_DIR`` environment variable)
  so the worker processes of a parallel sweep can share compilations across
  runs.  Disk writes are atomic (temp file + rename — the same discipline
  :mod:`repro.engine.store` uses — so a concurrent reader never observes a
  truncated artifact, even with several writers racing on one key).  File
  names carry :data:`DISK_FORMAT`, so entries pickled by a toolchain whose
  classes had another shape are never read, and an entry that still fails
  to load, for any reason, is a miss counted in ``stats.disk_errors``.

Concurrency
-----------
:class:`ScheduleCache` is safe for concurrent use from many threads (the
overlay service hammers one shared instance from a whole thread pool).  All
bookkeeping runs under one internal lock, and misses **coalesce**: when N
threads request the same key at once, exactly one runs the compile pipeline
while the other N-1 block on the in-flight entry and receive the identical
:class:`CompiledKernel` object (counted in ``stats.coalesced``).  A failed
in-flight compile propagates its exception to every waiter.  For servers
that want less lock contention and a bigger artifact pool,
:class:`ShardedScheduleCache` fronts N independent LRU shards behind the
same interface, routing each key to one shard by hash.

End-to-end chain
----------------
Together with the frontend layer (:mod:`repro.frontend.cache`) the cache
covers the full ``source → DFG → schedule → program → configuration image``
chain, every stage keyed by content hash.  The cache itself is addressed
only by :class:`CacheKey`.  The session (:class:`repro.api.Toolchain`)
resolves a source to its key once and remembers it; later requests reach
the entry through :meth:`ScheduleCache.get_or_compile_source`, which
neither parses nor hashes anything while the entry is cached.

A compile whose codegen fails (register pressure, instruction memory, an
op the instruction word cannot encode) leaves a failure record: the
schedule it failed on and the error.  A later compile of that key re-raises
the same error and :meth:`ScheduleCache.get_schedule` serves the schedule,
so neither runs the scheduler or codegen again.

Compiled artifacts are treated as immutable by every consumer (simulator,
codegen listings, context-switch accounting), which is what makes sharing a
single instance across runtimes and sweep points safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

from ..dfg.graph import DFG
from ..dfg.serialize import dfg_fingerprint
from ..errors import CodegenError
from ..overlay.architecture import LinearOverlay
from ..program.binary import ConfigurationImage, build_configuration_image
from ..program.codegen import OverlayProgram, generate_program
from ..schedule import schedule_kernel
from ..schedule.types import OverlaySchedule


#: Format tag of the disk layer's file names.  Bump it whenever a class
#: pickled into an entry changes shape (:class:`CompiledKernel`, the
#: schedule, program and image classes, DFG nodes and their shared derived
#: values, opcode hashing): entries of another format then keep their old
#: names and are never loaded.
DISK_FORMAT = 6


def dfg_content_hash(dfg: DFG) -> str:
    """Stable content hash of a DFG (alias of :func:`dfg_fingerprint`)."""
    return dfg_fingerprint(dfg)


def write_atomic(path: str, data: Union[str, bytes]) -> None:
    """Write ``path`` through a temp file and ``os.replace``, so a reader
    never sees half a file.  The temp file is removed if the write fails,
    and the error propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


@dataclass(frozen=True)
class CacheKey:
    """Everything the mapping flow's output depends on.

    ``scheduler`` is the strategy name from
    :mod:`repro.schedule.registry`; two strategies compiling the same
    (kernel, overlay) pair can never collide on one entry.
    :meth:`for_mapping` canonicalises the name (``"auto"`` resolves to the
    concrete strategy its dispatch selects for the overlay), so an ``auto``
    compile *shares* its entry with that concrete strategy instead of
    duplicating the work.
    """

    kernel_name: str
    dfg_hash: str
    variant_name: str
    depth: int
    fixed_depth: bool
    fifo_depth: int
    scheduler: str = "auto"

    @classmethod
    def for_mapping(
        cls,
        dfg: DFG,
        overlay: LinearOverlay,
        scheduler: str = "auto",
        dfg_hash: Optional[str] = None,
    ) -> "CacheKey":
        """The key of (kernel, overlay, strategy); pass ``dfg_hash`` when
        the caller already holds the DFG's fingerprint."""
        from ..schedule.registry import resolve_strategy_name

        return cls(
            kernel_name=dfg.name,
            dfg_hash=dfg_hash if dfg_hash is not None else dfg_content_hash(dfg),
            variant_name=overlay.variant.name,
            depth=overlay.depth,
            fixed_depth=overlay.fixed_depth,
            fifo_depth=overlay.fifo_depth,
            scheduler=resolve_strategy_name(scheduler, overlay),
        )

    def filename(self) -> str:
        """Stable on-disk name for the pickle layer, tagged with :data:`DISK_FORMAT`."""
        digest = hashlib.sha256(
            f"{self.kernel_name}|{self.dfg_hash}|{self.variant_name}|"
            f"{self.depth}|{self.fixed_depth}|{self.fifo_depth}|"
            f"{self.scheduler}".encode("utf-8")
        ).hexdigest()[:32]
        return f"{self.kernel_name}-{self.variant_name}-{digest}.f{DISK_FORMAT}.pkl"


@dataclass
class CompiledKernel:
    """The full output of the ahead-of-time mapping flow for one kernel."""

    schedule: OverlaySchedule
    program: OverlayProgram
    configuration: ConfigurationImage


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ScheduleCache`.

    A lookup counts in one field at most.  ``misses`` counts pipeline runs
    whose result the cache now holds: an artifact, or the failure record of
    a compile whose codegen failed (a run that fails earlier, such as an
    infeasible schedule, holds nothing and counts nothing).  ``hits``
    counts entries served to a caller that passed a DFG, ``source_hits``
    entries served to :meth:`ScheduleCache.get_or_compile_source` without
    lowering the source.  ``schedule_hits`` counts lookups answered by a
    failure record: a compile that re-raises the recorded error, or a
    :meth:`ScheduleCache.get_schedule` that returns the recorded schedule.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    source_hits: int = 0
    schedule_hits: int = 0
    #: Lookups that blocked on another thread's in-flight compile of the
    #: same key and received its artifact — the pipeline ran once, not N
    #: times.  Counted separately from ``hits``/``misses`` so the
    #: single-threaded accounting is unchanged.
    coalesced: int = 0
    #: Disk entries that existed but could not be loaded (truncated or
    #: foreign bytes, classes that no longer unpickle, a non-artifact
    #: object).  Each is also counted in ``misses``: the key recompiles and
    #: the entry is rewritten.
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        return (
            self.hits + self.misses + self.disk_hits + self.source_hits
            + self.schedule_hits + self.coalesced
        )

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if not lookups:
            return 0.0
        return (
            self.hits + self.disk_hits + self.source_hits + self.schedule_hits
            + self.coalesced
        ) / lookups

    def as_dict(self) -> dict:
        """Flat dict snapshot (service ``stats`` endpoint, CLI views)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "source_hits": self.source_hits,
            "schedule_hits": self.schedule_hits,
            "coalesced": self.coalesced,
            "disk_errors": self.disk_errors,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def merged(cls, parts: "list[CacheStats]") -> "CacheStats":
        """Field-wise sum of several stats (a sharded cache's aggregate)."""
        total = cls()
        for part in parts:
            total.hits += part.hits
            total.misses += part.misses
            total.disk_hits += part.disk_hits
            total.evictions += part.evictions
            total.source_hits += part.source_hits
            total.schedule_hits += part.schedule_hits
            total.coalesced += part.coalesced
            total.disk_errors += part.disk_errors
        return total


class _InflightCompile:
    """One in-flight compile of a cache key: the leader's result or error.

    Waiters block on ``event`` and then read exactly one of ``result`` /
    ``error`` — both are written before the event is set.
    """

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: "Optional[Union[CompiledKernel, _CodegenFailure]]" = None
        self.error: Optional[BaseException] = None


@dataclass(frozen=True)
class _CodegenFailure:
    """A compile whose codegen failed: the schedule it failed on, and why."""

    schedule: OverlaySchedule
    error_type: type
    message: str


def _artifact(found: "Union[CompiledKernel, _CodegenFailure]") -> CompiledKernel:
    """``found`` if it is an artifact; a failure record re-raises its error."""
    if isinstance(found, _CodegenFailure):
        raise found.error_type(found.message)
    return found


class ScheduleCache:
    """LRU cache of compiled kernels with an optional pickle disk layer."""

    def __init__(self, capacity: int = 128, disk_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.disk_dir = disk_dir if disk_dir is not None else os.environ.get("REPRO_CACHE_DIR")
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CompiledKernel]" = OrderedDict()
        #: Failure records of compiles whose codegen failed, by key (see the
        #: module docstring).  Memory only, LRU-bounded like the entries.
        self._failures: "OrderedDict[CacheKey, _CodegenFailure]" = OrderedDict()
        #: Static-verification verdicts (``repro.verify.VerifyReport``) keyed
        #: by compile key, so warm compile paths never re-run the passes.
        #: Verdicts live and die with the entries: ``clear()`` drops them.
        self._verdicts: "OrderedDict[CacheKey, object]" = OrderedDict()
        #: In-flight compiles by key: concurrent misses on one key coalesce
        #: onto a single pipeline run (see the module docstring).
        self._inflight: "dict[CacheKey, _InflightCompile]" = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry, failure record and verdict; reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._failures.clear()
            self._verdicts.clear()
            self.stats = CacheStats()

    # ------------------------------------------------------------------
    # verification verdicts
    # ------------------------------------------------------------------
    def get_verdict(self, key: CacheKey):
        """The cached verification verdict for ``key`` (None on a miss)."""
        with self._lock:
            verdict = self._verdicts.get(key)
            if verdict is not None:
                self._verdicts.move_to_end(key)
            return verdict

    def store_verdict(self, key: CacheKey, report) -> None:
        """Remember a verification verdict (LRU-bounded like the entries)."""
        with self._lock:
            self._verdicts[key] = report
            self._verdicts.move_to_end(key)
            while len(self._verdicts) > self.capacity:
                self._verdicts.popitem(last=False)

    # ------------------------------------------------------------------
    def get_or_compile(
        self, dfg: DFG, overlay: LinearOverlay, scheduler: str = "auto"
    ) -> CompiledKernel:
        """Return the compiled artifacts, running the mapping flow on a miss.

        ``scheduler`` selects the registered scheduling strategy; every
        strategy has its own cache entries (it is part of the key).
        """
        key = CacheKey.for_mapping(dfg, overlay, scheduler)
        return _artifact(self._get_or_compile_keyed(key, dfg, overlay))

    def get_or_compile_keyed(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> CompiledKernel:
        """Like :meth:`get_or_compile` with a precomputed key.

        The session API (:meth:`repro.api.Toolchain.compile`) resolves each
        request to its :class:`CacheKey` once and compiles through this
        entry, so the cache hashes nothing.
        """
        return _artifact(self._get_or_compile_keyed(key, dfg, overlay))

    def get_schedule(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> OverlaySchedule:
        """Return the schedule of ``key``, even when its codegen fails.

        Analytic evaluation (:meth:`repro.api.Toolchain.evaluate`) needs
        only the schedule.  A kernel that schedules fine but overflows the
        variant's register file or instruction memory raises
        :class:`~repro.errors.CodegenError` in the later stages of its
        compile; that compile's failure record keeps the schedule, and this
        call serves it.  Otherwise it returns the entry's schedule, compiling
        on a miss.
        """
        return self._get_or_compile_keyed(key, dfg, overlay).schedule

    def get_or_compile_source(
        self,
        source: str,
        overlay: LinearOverlay,
        key: CacheKey,
        name: Optional[str] = None,
    ) -> CompiledKernel:
        """Compile mini-C ``source`` under the ``key`` the caller resolved.

        A cached entry is returned without lowering or hashing anything
        (counted in ``stats.source_hits``).  On a miss — the entry was
        evicted, or never compiled here — the source is lowered through the
        frontend cache and compiled under ``key``.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.source_hits += 1
                return cached
        from ..frontend.cache import default_frontend_cache

        dfg = default_frontend_cache().dfg(source, name=name)
        return _artifact(self._get_or_compile_keyed(key, dfg, overlay))

    def peek(self, key: CacheKey) -> Optional[CompiledKernel]:
        """The cached entry for ``key`` (LRU-touched, no stats), or None.

        A pure lookup for callers that keep their own accounting, such as
        :meth:`get_batch_plan`.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
            return cached

    def get_batch_plan(self, key: CacheKey):
        """The batched engine's value plane for a cached entry's schedule,
        or None.

        This is :func:`repro.engine.batchsim.plan_for` of the entry's
        schedule, which builds one
        :class:`~repro.engine.batchsim.VectorBlockEvaluator` per live
        schedule object: every batched run of the artifact shares it, and it
        lives as long as the entry holds the schedule (a disk-loaded entry
        gets its own on first use).  Returns ``None`` when the key has no
        in-memory entry.  Building needs no numpy: without it the image plan
        is left unbuilt and the engine runs on the scalar value plane.
        """
        entry = self.peek(key)
        if entry is None:
            return None
        from .batchsim import plan_for

        return plan_for(entry.schedule)

    def _get_or_compile_keyed(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> "Union[CompiledKernel, _CodegenFailure]":
        """The entry or failure record of ``key``, compiling on a miss."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached
            failure = self._failures.get(key)
            if failure is not None:
                self._failures.move_to_end(key)
                self.stats.schedule_hits += 1
                return failure
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InflightCompile()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            # Another thread is compiling this exact key right now: wait for
            # it and share its result instead of running the pipeline again.
            flight.event.wait()
            with self._lock:
                self.stats.coalesced += 1
            if flight.error is not None:
                raise flight.error
            assert flight.result is not None
            return flight.result
        try:
            compiled = self._compile_miss(key, dfg, overlay)
        except BaseException as error:
            flight.error = error
            raise
        else:
            flight.result = compiled
            return compiled
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()

    def _compile_miss(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> "Union[CompiledKernel, _CodegenFailure]":
        """Disk lookup, then the full mapping pipeline (the leader's path)."""
        from_disk = self._load_from_disk(key)
        if from_disk is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._store(key, from_disk)
            return from_disk

        schedule = schedule_kernel(dfg, overlay, scheduler=key.scheduler)
        try:
            program = generate_program(schedule)
            configuration = build_configuration_image(schedule, program)
        except CodegenError as error:
            failure = _CodegenFailure(schedule, type(error), str(error))
            with self._lock:
                self.stats.misses += 1
                self._failures[key] = failure
                while len(self._failures) > self.capacity:
                    self._failures.popitem(last=False)
            return failure
        compiled = CompiledKernel(schedule=schedule, program=program, configuration=configuration)
        with self._lock:
            self.stats.misses += 1
            self._store(key, compiled)
        self._save_to_disk(key, compiled)
        return compiled

    # ------------------------------------------------------------------
    def _store(self, key: CacheKey, compiled: CompiledKernel) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: CacheKey) -> Optional[str]:
        if not self.disk_dir:
            return None
        return os.path.join(self.disk_dir, key.filename())

    def _load_from_disk(self, key: CacheKey) -> Optional[CompiledKernel]:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as handle:
                compiled = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - any unreadable entry is a counted miss
            compiled = None
        if not isinstance(compiled, CompiledKernel):
            with self._lock:
                self.stats.disk_errors += 1
            return None
        return compiled

    def _save_to_disk(self, key: CacheKey, compiled: CompiledKernel) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            write_atomic(path, pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL))
        except OSError:
            # The disk layer is best-effort: a read-only or full filesystem
            # must never break compilation itself.
            return


class ShardedScheduleCache:
    """N independent :class:`ScheduleCache` shards behind one cache interface.

    The overlay service serves every tenant from one shared compile cache;
    a single lock (and a single LRU) would serialise the whole thread pool
    on it.  This router sends each :class:`CacheKey` to one of ``shards``
    independent LRU shards by hash, so threads compiling *different* keys
    never contend on one lock, while threads compiling the *same* key land
    on the same shard and coalesce onto a single pipeline run.

    Every call is addressed by key and handed whole to its shard: the router
    keeps no index, lock or statistics of its own, and ``stats`` is the sum
    of the shards'.  The interface matches :class:`ScheduleCache` everywhere
    the :class:`~repro.api.Toolchain` touches it (``get_or_compile_keyed``,
    ``get_schedule``, ``get_or_compile_source``, verdict storage,
    ``capacity``/``stats``/``clear``/``len``), so it drops into
    ``Toolchain(cache=...)`` unchanged.  ``capacity`` is the *total* bound:
    each shard holds ``ceil(capacity / shards)`` entries.
    """

    def __init__(
        self,
        capacity: int = 512,
        shards: int = 8,
        disk_dir: Optional[str] = None,
    ):
        if shards < 1:
            raise ValueError("a sharded cache needs at least one shard")
        if capacity < shards:
            raise ValueError(
                f"capacity {capacity} is below one entry per shard ({shards})"
            )
        per_shard = -(-capacity // shards)  # ceil division
        self.num_shards = shards
        self.disk_dir = disk_dir if disk_dir is not None else os.environ.get("REPRO_CACHE_DIR")
        self._shards = [
            ScheduleCache(capacity=per_shard, disk_dir=self.disk_dir)
            for _ in range(shards)
        ]

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total entry bound across every shard."""
        return sum(shard.capacity for shard in self._shards)

    @property
    def stats(self) -> CacheStats:
        """Aggregated statistics (the field-wise sum of the shards')."""
        return CacheStats.merged([shard.stats for shard in self._shards])

    def shard_stats(self) -> "list[CacheStats]":
        """Per-shard statistics (observability: spot a hot shard)."""
        return [shard.stats for shard in self._shards]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def clear(self) -> None:
        """Drop every shard's entries, failure records and verdicts."""
        for shard in self._shards:
            shard.clear()

    def _shard(self, key: CacheKey) -> ScheduleCache:
        return self._shards[hash(key) % self.num_shards]

    # ------------------------------------------------------------------
    def get_or_compile(
        self, dfg: DFG, overlay: LinearOverlay, scheduler: str = "auto"
    ) -> CompiledKernel:
        key = CacheKey.for_mapping(dfg, overlay, scheduler)
        return self._shard(key).get_or_compile_keyed(key, dfg, overlay)

    def get_or_compile_keyed(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> CompiledKernel:
        return self._shard(key).get_or_compile_keyed(key, dfg, overlay)

    def get_or_compile_source(
        self,
        source: str,
        overlay: LinearOverlay,
        key: CacheKey,
        name: Optional[str] = None,
    ) -> CompiledKernel:
        return self._shard(key).get_or_compile_source(source, overlay, key, name)

    def get_schedule(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> OverlaySchedule:
        return self._shard(key).get_schedule(key, dfg, overlay)

    def get_verdict(self, key: CacheKey):
        return self._shard(key).get_verdict(key)

    def store_verdict(self, key: CacheKey, report) -> None:
        self._shard(key).store_verdict(key, report)

    def get_batch_plan(self, key: CacheKey):
        return self._shard(key).get_batch_plan(key)


_DEFAULT_CACHE: Optional[ScheduleCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ScheduleCache:
    """The process-wide cache shared by runtimes, sweeps and benchmarks."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = ScheduleCache()
        return _DEFAULT_CACHE
