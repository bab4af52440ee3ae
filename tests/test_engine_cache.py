"""Tests for the compiled-schedule cache and its runtime integration."""

import pickle

import pytest

from repro.engine.cache import (
    CacheKey,
    CompiledKernel,
    ScheduleCache,
    default_cache,
    dfg_content_hash,
)
from repro.errors import ConfigurationError
from repro.kernels import get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.runtime.manager import OverlayRuntime
from repro.specs import OverlaySpec, SimSpec


@pytest.fixture
def cache():
    return ScheduleCache(capacity=8, disk_dir=None)


class TestContentHash:
    def test_structural_copies_hash_identically(self):
        assert dfg_content_hash(get_kernel("gradient")) == dfg_content_hash(
            get_kernel("gradient")
        )

    def test_different_kernels_hash_differently(self):
        assert dfg_content_hash(get_kernel("gradient")) != dfg_content_hash(
            get_kernel("qspline")
        )

    def test_editing_a_constant_changes_the_hash(self):
        from repro.dfg.serialize import from_dict, to_dict

        original = get_kernel("chebyshev")
        data = to_dict(original)
        constants = [r for r in data["nodes"] if r["op"] == "const"]
        assert constants, "chebyshev should carry constant nodes"
        constants[0]["value"] = int(constants[0]["value"]) + 1
        edited = from_dict(data)
        assert dfg_content_hash(edited) != dfg_content_hash(original)


class TestScheduleCache:
    def test_second_lookup_hits_and_returns_same_object(self, cache):
        dfg = get_kernel("gradient")
        overlay = LinearOverlay.for_kernel("v1", dfg)
        first = cache.get_or_compile(dfg, overlay)
        second = cache.get_or_compile(get_kernel("gradient"), overlay)
        assert first is second
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_distinct_overlay_configs_miss(self, cache):
        dfg = get_kernel("qspline")
        cache.get_or_compile(dfg, LinearOverlay.for_kernel("v1", dfg))
        cache.get_or_compile(dfg, LinearOverlay.for_kernel("v2", dfg))
        cache.get_or_compile(dfg, LinearOverlay.fixed("v3", 8))
        assert cache.stats.misses == 3
        assert len(cache) == 3

    def test_lru_eviction(self):
        small = ScheduleCache(capacity=2)
        for name in ("gradient", "chebyshev", "mibench"):
            dfg = get_kernel(name)
            small.get_or_compile(dfg, LinearOverlay.for_kernel("v1", dfg))
        assert len(small) == 2
        assert small.stats.evictions == 1
        # gradient (least recently used) was evicted -> compiles again.
        dfg = get_kernel("gradient")
        small.get_or_compile(dfg, LinearOverlay.for_kernel("v1", dfg))
        assert small.stats.misses == 4

    def test_compiled_artifacts_are_complete(self, cache):
        dfg = get_kernel("gradient")
        compiled = cache.get_or_compile(dfg, LinearOverlay.for_kernel("v1", dfg))
        assert compiled.schedule.kernel_name == "gradient"
        assert compiled.program.total_instruction_words > 0
        assert compiled.configuration.total_words > 0

    def test_disk_layer_round_trip(self, tmp_path):
        disk = str(tmp_path / "cache")
        writer = ScheduleCache(capacity=4, disk_dir=disk)
        dfg = get_kernel("chebyshev")
        overlay = LinearOverlay.for_kernel("v1", dfg)
        compiled = writer.get_or_compile(dfg, overlay)
        # A fresh cache (fresh process in real sweeps) loads from disk.
        reader = ScheduleCache(capacity=4, disk_dir=disk)
        loaded = reader.get_or_compile(get_kernel("chebyshev"), overlay)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0
        assert loaded.schedule.kernel_name == compiled.schedule.kernel_name
        assert loaded.program.total_instruction_words == (
            compiled.program.total_instruction_words
        )

    def test_corrupt_disk_entry_recompiles(self, tmp_path):
        disk = str(tmp_path / "cache")
        writer = ScheduleCache(capacity=4, disk_dir=disk)
        dfg = get_kernel("gradient")
        overlay = LinearOverlay.for_kernel("v1", dfg)
        writer.get_or_compile(dfg, overlay)
        key = CacheKey.for_mapping(dfg, overlay)
        path = tmp_path / "cache" / key.filename()
        path.write_bytes(b"not a pickle")
        reader = ScheduleCache(capacity=4, disk_dir=disk)
        compiled = reader.get_or_compile(get_kernel("gradient"), overlay)
        assert reader.stats.misses == 1
        assert compiled.schedule.kernel_name == "gradient"

    def test_compiled_kernel_is_picklable(self, cache):
        dfg = get_kernel("qspline")
        compiled = cache.get_or_compile(dfg, LinearOverlay.fixed("v3", 8))
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledKernel)
        assert clone.schedule.kernel_name == "qspline"


class TestRuntimeIntegration:
    def test_register_uses_shared_cache(self):
        cache = ScheduleCache(capacity=16)
        first = OverlayRuntime(OverlaySpec("v1", depth=4), cache=cache)
        second = OverlayRuntime(OverlaySpec("v1", depth=4), cache=cache)
        handle_a = first.register("gradient")
        handle_b = second.register("gradient")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert handle_a.schedule is handle_b.schedule

    def test_register_twice_compiles_once(self):
        cache = ScheduleCache(capacity=16)
        runtime = OverlayRuntime(OverlaySpec("v3", depth=8), cache=cache)
        runtime.register("qspline")
        runtime.register("qspline")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_default_cache_is_process_wide(self):
        runtime = OverlayRuntime(OverlaySpec("v1", depth=4))
        assert runtime.cache is default_cache()

    def test_cached_execution_still_verifies(self):
        cache = ScheduleCache(capacity=16)
        runtime = OverlayRuntime(
            OverlaySpec("v1", depth=4), SimSpec(engine="fast"), cache=cache
        )
        runtime.register("gradient")
        result = runtime.execute_random("gradient", num_blocks=8)
        assert result.matches_reference
        # Second runtime reuses the compiled schedule and still simulates OK.
        other = OverlayRuntime(OverlaySpec("v1", depth=4), cache=cache)
        other.register("gradient")
        result = other.execute_random("gradient", num_blocks=8)
        assert result.matches_reference

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayRuntime(OverlaySpec("v1", depth=4), SimSpec(engine="warp"))
