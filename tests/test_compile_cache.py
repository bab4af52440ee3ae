"""End-to-end compile cache: source → DFG → schedule → binary.

Exercises the source fast path of ``Toolchain.compile(source=...)`` (the
session resolves a source to its cache key once, then
:meth:`repro.engine.cache.ScheduleCache.get_or_compile_source` serves the
entry), its interaction with the frontend cache, invalidation on source
edits, and the wiring through :class:`repro.runtime.manager.OverlayRuntime`
and :func:`repro.metrics.performance.evaluate_kernel_all_overlays`.
"""

import pytest

from repro.engine.cache import ScheduleCache, default_cache
from repro.kernels.library import CHEBYSHEV_C_SOURCE, GRADIENT_C_SOURCE
from repro.api import Toolchain, default_toolchain
from repro.metrics.performance import evaluate_kernel_all_overlays
from repro.runtime.manager import OverlayRuntime
from repro.specs import OverlaySpec

SOURCE = "int triple(int a) { return a + a + a; }"
#: Same structure, one constant-free edit that keeps depth and I/O intact.
EDITED = "int triple(int a) { return a + a - a; }"


def _v1(depth=2):
    return OverlaySpec("v1", depth=depth)


def _compile(toolchain, source, overlay, name=None):
    return toolchain.compile(source=source, overlay=overlay, name=name)


class TestSourceFastPath:
    def test_cold_then_warm(self):
        tc = Toolchain(cache=ScheduleCache())
        first = _compile(tc, SOURCE, _v1())
        assert tc.cache.stats.misses == 1 and tc.cache.stats.source_hits == 0
        second = _compile(tc, SOURCE, _v1())
        assert second.schedule is first.schedule
        assert tc.cache.stats.source_hits == 1
        # Warm hit bypasses the DFG-keyed layer entirely.
        assert tc.cache.stats.hits == 0

    def test_distinct_overlays_are_distinct_entries(self):
        tc = Toolchain(cache=ScheduleCache())
        a = _compile(tc, SOURCE, _v1(2))
        b = _compile(tc, SOURCE, _v1(3))
        assert a.schedule is not b.schedule
        assert tc.cache.stats.misses == 2

    def test_invalidation_on_source_change(self):
        tc = Toolchain(cache=ScheduleCache())
        before = _compile(tc, SOURCE, _v1())
        after = _compile(tc, EDITED, _v1())
        assert after.schedule is not before.schedule
        assert tc.cache.stats.misses == 2
        # And the recompiled artefacts reflect the edit.
        assert before.schedule.dfg.num_operations != 0
        assert _compile(tc, EDITED, _v1()).schedule is after.schedule

    def test_name_override_is_part_of_the_key(self):
        tc = Toolchain(cache=ScheduleCache())
        _compile(tc, SOURCE, _v1(), name="one")
        _compile(tc, SOURCE, _v1(), name="two")
        assert tc.cache.stats.misses == 2

    def test_source_path_reuses_dfg_layer_after_clear_of_index(self):
        """A DFG-identical source still hits the DFG-keyed layer."""
        tc = Toolchain(cache=ScheduleCache())
        _compile(tc, SOURCE, _v1())
        # Different text, same lowered DFG (comment only) -> the session's
        # source index misses but the DFG content hash matches the entry.
        commented = "// cosmetic\n" + SOURCE
        _compile(tc, commented, _v1())
        assert tc.cache.stats.hits == 1
        assert tc.cache.stats.misses == 1

    def test_clear_makes_the_next_source_compile_a_miss(self):
        tc = Toolchain(cache=ScheduleCache())
        _compile(tc, SOURCE, _v1())
        tc.cache.clear()
        _compile(tc, SOURCE, _v1())
        assert tc.cache.stats.source_hits == 0
        assert tc.cache.stats.misses == 1

    def test_disk_layer_shared_between_instances(self, tmp_path):
        writer = Toolchain(cache=ScheduleCache(disk_dir=str(tmp_path)))
        _compile(writer, SOURCE, _v1())
        reader = Toolchain(cache=ScheduleCache(disk_dir=str(tmp_path)))
        _compile(reader, SOURCE, _v1())
        assert reader.cache.stats.disk_hits == 1
        assert reader.cache.stats.misses == 0


class TestRuntimeWiring:
    def test_register_source_compiles_and_executes(self):
        runtime = OverlayRuntime(OverlaySpec("v1", depth=8), cache=ScheduleCache())
        handle = runtime.register_source(GRADIENT_C_SOURCE)
        assert handle.name == "gradient"
        result = runtime.execute_random("gradient", num_blocks=4)
        assert result.matches_reference

    def test_register_source_shares_compilations_across_runtimes(self):
        cache = ScheduleCache()
        first = OverlayRuntime(OverlaySpec("v1", depth=8), cache=cache)
        second = OverlayRuntime(OverlaySpec("v1", depth=8), cache=cache)
        a = first.register_source(CHEBYSHEV_C_SOURCE)
        b = second.register_source(CHEBYSHEV_C_SOURCE)
        assert a.schedule is b.schedule
        assert cache.stats.misses == 1

    def test_register_source_matches_register_of_library_kernel(self):
        cache = ScheduleCache()
        runtime = OverlayRuntime(OverlaySpec("v1", depth=8), cache=cache)
        from_source = runtime.register_source(GRADIENT_C_SOURCE)
        from_library = runtime.register("gradient")
        # The library's gradient is parsed from the same source, so the
        # compiled schedule is literally the same cached object.
        assert from_source.schedule is from_library.schedule
        assert cache.stats.misses == 1


class TestMetricsWiring:
    def test_evaluate_kernel_uses_the_default_cache(self, gradient):
        cache = default_cache()
        cache.clear()
        evaluate_kernel_all_overlays(gradient, variants=("v1",))
        misses_after_first = cache.stats.misses
        evaluate_kernel_all_overlays(gradient, variants=("v1",))
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits >= 1

    def test_evaluate_kernel_survives_regalloc_overflow(self):
        """Analytic evaluation must not fail on kernels that schedule but
        exceed the register file (the full compile is cache-only bonus)."""
        from repro.dfg.builder import DFGBuilder
        from repro.dfg.opcodes import OpCode

        builder = DFGBuilder("wide")
        inputs = [builder.input(f"i{k}") for k in range(20)]
        products = [builder.mul(inputs[k], inputs[(k + 1) % 20]) for k in range(20)]
        builder.output(builder.reduce(OpCode.ADD, products), "o")
        wide = builder.build()
        # 20 loads > V1's 16-entry window
        result = evaluate_kernel_all_overlays(wide, variants=("v1",))["v1"]
        assert result.ii > 0

    def test_warm_compile_and_evaluate_is_fully_cached(self):
        toolchain = default_toolchain()
        default_cache().clear()
        toolchain.evaluate(toolchain.compile("gradient", OverlaySpec("v1")))
        misses = default_cache().stats.misses
        for _ in range(3):
            toolchain.evaluate(toolchain.compile("gradient", OverlaySpec("v1")))
        assert default_cache().stats.misses == misses
