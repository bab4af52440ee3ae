"""Concurrent Toolchain / cache contract suite (the service PR's backbone).

The overlay service hands one shared compile cache to many worker threads,
so this file pins the guarantees that make that safe:

* **shared cache, many threads** — N threads compiling a grid of
  ``(kernel, variant)`` points through one :class:`ScheduleCache` (and one
  :class:`ShardedScheduleCache`) produce bit-identical artifacts per point
  and run the mapping pipeline exactly once per distinct key, never per
  thread;
* **coalescing** — concurrent identical compiles block on the in-flight
  leader instead of duplicating work, and a failing leader propagates its
  exception to every waiter without poisoning the key;
* **isolation** — concurrently driven isolated sessions still share
  nothing (the ``tests/test_api_toolchain.py`` semantics, under threads);
* **disk-layer discipline** — concurrent writers sharing one ``disk_dir``
  (the temp+rename pattern of ``engine/store.py``) never let a reader see
  a truncated artifact;
* **sharding mechanics** — every call routed by key (the source fast path
  too), merged statistics, per-shard capacity.
"""

import collections
import pickle
import sys
import threading

import pytest

from repro.api import Toolchain
from repro.engine.cache import CacheStats, ScheduleCache, ShardedScheduleCache
from repro.errors import CodegenError
from repro.kernels import get_kernel
from repro.kernels.generators import dfg_from_level_profile
from repro.specs import OverlaySpec

GRID = [
    ("gradient", "v1"),
    ("gradient", "v3"),
    ("chebyshev", "v2"),
    ("qspline", "v3"),
]


def _compile_grid_concurrently(cache, threads_per_point=4):
    """Drive one shared cache from many threads; return digests per point."""
    points = GRID * threads_per_point
    barrier = threading.Barrier(len(points))
    results = {}
    lock = threading.Lock()
    errors = []

    def worker(kernel, variant):
        toolchain = Toolchain(cache=cache)  # sessions share the injected cache
        barrier.wait()
        try:
            handle = toolchain.compile(kernel, OverlaySpec(variant=variant))
            image = handle.configuration.to_bytes()
            with lock:
                results.setdefault((kernel, variant), set()).add(image)
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=point) for point in points
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    return results


class TestSharedCacheConcurrency:
    @pytest.mark.parametrize(
        "make_cache",
        [
            lambda: ScheduleCache(capacity=64),
            lambda: ShardedScheduleCache(capacity=64, shards=4),
        ],
        ids=["flat", "sharded"],
    )
    def test_grid_compiles_bit_identically_with_one_run_per_key(self, make_cache):
        cache = make_cache()
        results = _compile_grid_concurrently(cache, threads_per_point=4)
        # Bit-identical artifacts: every thread of a point saw one image.
        assert set(results) == set(GRID)
        for point, images in results.items():
            assert len(images) == 1, f"{point} produced divergent artifacts"
        # One pipeline run per distinct key, never per thread.
        stats = cache.stats
        assert stats.misses == len(GRID)
        assert stats.hits + stats.coalesced == len(GRID) * 3

    def test_concurrent_isolated_sessions_share_nothing(self):
        K = 4
        barrier = threading.Barrier(K)
        sessions = [Toolchain(cache=ScheduleCache(capacity=8)) for _ in range(K)]
        handles = [None] * K

        def worker(index):
            barrier.wait()
            handles[index] = sessions[index].compile(
                "gradient", OverlaySpec(variant="v3")
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # Each isolated session ran its own pipeline on its own cache ...
        for session in sessions:
            assert session.cache.stats.misses == 1
            assert session.cache.stats.hits == 0
            assert session.cache.stats.coalesced == 0
        # ... but determinism still makes the artifacts bit-identical.
        images = {h.configuration.to_bytes() for h in handles}
        assert len(images) == 1
        schedules = {id(h.schedule) for h in handles}
        assert len(schedules) == K  # distinct objects: nothing was shared


class TestCoalescingAtTheCacheLayer:
    def test_waiters_block_on_the_leader_not_the_pipeline(self, monkeypatch):
        K = 6
        runs = []
        original = ScheduleCache._compile_miss

        def slow_compile(self, key, dfg, overlay):
            runs.append(key)
            import time

            time.sleep(0.2)
            return original(self, key, dfg, overlay)

        monkeypatch.setattr(ScheduleCache, "_compile_miss", slow_compile)
        cache = ScheduleCache(capacity=8)
        dfg = get_kernel("gradient")
        spec = OverlaySpec(variant="v3")
        barrier = threading.Barrier(K)
        handles = [None] * K

        def worker(index):
            barrier.wait()
            handles[index] = Toolchain(cache=cache).compile(dfg, spec)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(runs) == 1
        assert cache.stats.misses == 1
        assert cache.stats.coalesced >= 1
        assert cache.stats.hits + cache.stats.coalesced == K - 1
        # Coalesced waiters receive the *same* compiled object.
        assert len({id(h.schedule) for h in handles}) == 1

    def test_leader_failure_reaches_every_waiter_without_poisoning(self, monkeypatch):
        K = 4
        attempts = []

        def failing_compile(self, key, dfg, overlay):
            attempts.append(key)
            import time

            time.sleep(0.1)
            raise CodegenError("transient pipeline failure")

        original = ScheduleCache._compile_miss
        monkeypatch.setattr(ScheduleCache, "_compile_miss", failing_compile)
        cache = ScheduleCache(capacity=8)
        dfg = get_kernel("gradient")
        spec = OverlaySpec(variant="v3")
        barrier = threading.Barrier(K)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                Toolchain(cache=cache).compile(dfg, spec)
            except CodegenError as error:
                with lock:
                    outcomes.append(str(error))

        threads = [threading.Thread(target=worker) for _ in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == ["transient pipeline failure"] * K
        assert len(attempts) == 1  # one shared failure, not K pipeline runs
        # The failed key is not poisoned: a later compile succeeds.
        monkeypatch.setattr(ScheduleCache, "_compile_miss", original)
        handle = Toolchain(cache=cache).compile(dfg, spec)
        assert handle.configuration is not None

    def test_schedule_only_compiles_run_each_stage_once(self, monkeypatch):
        """A codegen failure is compiled once however many threads ask: the
        waiters share the leader's failure record, later callers hit it."""
        import repro.engine.cache as cache_module

        K = 8
        runs = collections.Counter()
        lock = threading.Lock()

        def counting(function):
            def wrapper(*args, **kwargs):
                with lock:
                    runs[function.__name__] += 1
                return function(*args, **kwargs)

            return wrapper

        for attr in ("schedule_kernel", "generate_program"):
            monkeypatch.setattr(cache_module, attr, counting(getattr(cache_module, attr)))
        cache = ShardedScheduleCache(capacity=64, shards=4)
        barrier = threading.Barrier(K)
        handles = [None] * K

        def worker(index):
            dfg = dfg_from_level_profile(
                [24, 20, 16, 12, 8, 4, 2, 1], num_inputs=8, name="fat"
            )
            barrier.wait()
            handles[index] = Toolchain(cache=cache).compile(
                dfg, OverlaySpec("v3"), allow_schedule_only=True
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose races
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert runs == {"schedule_kernel": 1, "generate_program": 1}
        assert all(handle.schedule_only for handle in handles)
        assert len({id(handle.schedule) for handle in handles}) == 1


class TestDiskLayerRaces:
    def test_concurrent_writers_sharing_a_disk_dir_never_corrupt_it(self, tmp_path):
        """Separate caches racing on one disk_dir: readers see whole files.

        Each worker uses its *own* in-memory cache, so every one of them
        writes the artifact to the shared directory — the temp+rename
        discipline must make those writes atomic.
        """
        K = 8
        disk = str(tmp_path / "cachedir")
        barrier = threading.Barrier(K)
        errors = []

        def worker(index):
            cache = ScheduleCache(capacity=4, disk_dir=disk)
            barrier.wait()
            try:
                for kernel, variant in GRID:
                    Toolchain(cache=cache).compile(
                        kernel, OverlaySpec(variant=variant)
                    )
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        # No temp droppings survive, and every artifact unpickles whole.
        leftovers = list(tmp_path.joinpath("cachedir").glob("*.tmp"))
        assert leftovers == []
        artifacts = list(tmp_path.joinpath("cachedir").glob("*.pkl"))
        assert len(artifacts) == len(GRID)
        for path in artifacts:
            with open(path, "rb") as handle:
                compiled = pickle.load(handle)  # truncated pickles raise here
            assert compiled.schedule is not None

    def test_cold_cache_reads_the_racy_directory_back(self, tmp_path):
        disk = str(tmp_path / "cachedir")
        warm = ScheduleCache(capacity=8, disk_dir=disk)
        for kernel, variant in GRID:
            Toolchain(cache=warm).compile(kernel, OverlaySpec(variant=variant))
        cold = ScheduleCache(capacity=8, disk_dir=disk)
        for kernel, variant in GRID:
            Toolchain(cache=cold).compile(kernel, OverlaySpec(variant=variant))
        assert cold.stats.disk_hits == len(GRID)
        assert cold.stats.misses == 0


class TestShardedCacheMechanics:
    def test_keys_route_to_stable_shards(self):
        cache = ShardedScheduleCache(capacity=32, shards=4)
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        assert len(cache) == len(GRID)
        assert sum(len(shard) for shard in cache._shards) == len(GRID)
        # A second pass is all hits: routing is deterministic.
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        assert cache.stats.hits == len(GRID)
        assert cache.stats.misses == len(GRID)

    def test_capacity_is_summed_across_shards(self):
        cache = ShardedScheduleCache(capacity=30, shards=4)
        assert cache.num_shards == 4
        assert cache.capacity >= 30  # per-shard ceil rounding may add slack
        assert cache.capacity == sum(s.capacity for s in cache._shards)

    def test_stats_merge_across_shards(self):
        cache = ShardedScheduleCache(capacity=32, shards=4)
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        merged = cache.stats
        assert isinstance(merged, CacheStats)
        assert merged.misses == sum(s.stats.misses for s in cache._shards)
        rows = cache.shard_stats()
        assert len(rows) == 4
        assert sum(row.misses for row in rows) == merged.misses

    def test_source_fast_path_routes_by_key(self):
        source = """
void grad(int a, int b, int c, int *out) {
    *out = (b - a) + (c - b);
}
"""
        cache = ShardedScheduleCache(capacity=32, shards=4)
        toolchain = Toolchain(cache=cache)
        first = toolchain.compile(source=source, overlay=OverlaySpec())
        second = toolchain.compile(source=source, overlay=OverlaySpec())
        assert first.schedule is second.schedule
        assert cache.stats.source_hits == 1
        assert cache.stats.misses == 1  # compiled once, in one shard only

    def test_clear_empties_every_shard(self):
        cache = ShardedScheduleCache(capacity=32, shards=4)
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        cache.clear()
        assert len(cache) == 0
        assert all(len(shard) == 0 for shard in cache._shards)
