"""Tests for the compiled-schedule cache and its runtime integration."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.engine.cache import (
    DISK_FORMAT,
    CacheKey,
    CacheStats,
    CompiledKernel,
    ScheduleCache,
    ShardedScheduleCache,
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


def _legacy_filename(key, tag=""):
    """The disk layer's file name under an older format ``tag`` (such as
    ``.f5``), or before it carried one."""
    digest = hashlib.sha256(
        f"{key.kernel_name}|{key.dfg_hash}|{key.variant_name}|"
        f"{key.depth}|{key.fixed_depth}|{key.fifo_depth}|"
        f"{key.scheduler}".encode("utf-8")
    ).hexdigest()[:32]
    return f"{key.kernel_name}-{key.variant_name}-{digest}{tag}.pkl"


#: Entries that fail to load the way stale or damaged ones do: a module or
#: class that is gone (ImportError), a reconstructor whose signature changed
#: (TypeError), a value a constructor now rejects (ValueError), bytes that
#: are no pickle, and an object that is no artifact.  Protocol 0 by hand, so
#: the bytes need nothing importable from this test module.
UNLOADABLE_ENTRIES = [
    pytest.param(b"cno_such_module_for_the_cache_test\nCompiledKernel\n.", ImportError, id="ImportError"),
    pytest.param(b"cbuiltins\nlen\n(tR.", TypeError, id="TypeError"),
    pytest.param(b"cbuiltins\nint\n(S'not a number'\ntR.", ValueError, id="ValueError"),
    pytest.param(b"not a pickle", pickle.UnpicklingError, id="UnpicklingError"),
    pytest.param(pickle.dumps({"schedule": None}), None, id="not-an-artifact"),
]


class TestDiskFormat:
    @pytest.fixture
    def point(self):
        dfg = get_kernel("chebyshev")
        overlay = LinearOverlay.for_kernel("v1", dfg)
        return dfg, overlay, CacheKey.for_mapping(dfg, overlay)

    def test_file_names_carry_the_format_tag(self, point):
        key = point[2]
        assert key.filename().endswith(f".f{DISK_FORMAT}.pkl")
        assert key.filename() != _legacy_filename(key)

    def test_artifact_shape_is_pinned_to_the_format(self):
        # Entries pickled with another artifact shape must never load, so a
        # change to CompiledKernel's fields comes with a DISK_FORMAT bump.
        fields = tuple(field.name for field in dataclasses.fields(CompiledKernel))
        assert (DISK_FORMAT, fields) == (6, ("schedule", "program", "configuration"))

    @pytest.mark.parametrize(
        "tag", ["", f".f{DISK_FORMAT - 1}"], ids=["untagged", "previous-format"]
    )
    def test_old_format_entry_is_ignored(self, tmp_path, point, tag):
        dfg, overlay, key = point
        compiled = ScheduleCache(capacity=4).get_or_compile(dfg, overlay)
        disk = tmp_path / "cache"
        disk.mkdir()
        # A readable artifact under an untagged or older-format name is
        # never loaded.
        (disk / _legacy_filename(key, tag)).write_bytes(pickle.dumps(compiled))
        reader = ScheduleCache(capacity=4, disk_dir=str(disk))
        reader.get_or_compile(get_kernel("chebyshev"), overlay)
        assert (reader.stats.disk_hits, reader.stats.misses, reader.stats.disk_errors) == (0, 1, 0)
        assert (disk / key.filename()).exists()

    @pytest.mark.parametrize("entry, error", UNLOADABLE_ENTRIES)
    def test_unloadable_entry_is_a_counted_miss(self, tmp_path, point, entry, error):
        dfg, overlay, key = point
        if error is not None:
            with pytest.raises(error):
                pickle.loads(entry)
        disk = tmp_path / "cache"
        disk.mkdir()
        (disk / key.filename()).write_bytes(entry)
        reader = ScheduleCache(capacity=4, disk_dir=str(disk))
        compiled = reader.get_or_compile(dfg, overlay)
        assert compiled.schedule.kernel_name == "chebyshev"
        assert (reader.stats.disk_hits, reader.stats.misses, reader.stats.disk_errors) == (0, 1, 1)
        assert reader.stats.as_dict()["disk_errors"] == 1
        # The recompiled artifact replaced the entry: the next reader hits it.
        again = ScheduleCache(capacity=4, disk_dir=str(disk))
        again.get_or_compile(get_kernel("chebyshev"), overlay)
        assert (again.stats.disk_hits, again.stats.disk_errors) == (1, 0)

    def test_fresh_entry_round_trips_to_a_disk_hit(self, tmp_path, point):
        dfg, overlay, key = point
        disk = str(tmp_path / "cache")
        written = ScheduleCache(capacity=4, disk_dir=disk).get_or_compile(dfg, overlay)
        reader = ScheduleCache(capacity=4, disk_dir=disk)
        loaded = reader.get_or_compile(get_kernel("chebyshev"), overlay)
        assert (reader.stats.disk_hits, reader.stats.misses, reader.stats.disk_errors) == (1, 0, 0)
        assert loaded.configuration.to_bytes() == written.configuration.to_bytes()

    def test_sharded_stats_sum_disk_errors(self, tmp_path, point):
        dfg, overlay, key = point
        disk = tmp_path / "cache"
        disk.mkdir()
        (disk / key.filename()).write_bytes(b"not a pickle")
        cache = ShardedScheduleCache(capacity=8, shards=2, disk_dir=str(disk))
        cache.get_or_compile(dfg, overlay)
        assert cache.stats.disk_errors == 1
        assert CacheStats.merged([CacheStats(disk_errors=2), CacheStats(disk_errors=3)]).disk_errors == 5


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
