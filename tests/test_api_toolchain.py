"""Tests for the :class:`repro.api.Toolchain` session API."""

import collections
import dataclasses

import pytest

from repro.api import CompiledHandle, Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.sweep import SweepPoint
from repro.errors import CodegenError, ConfigurationError
from repro.overlay.resources import overlay_fmax_mhz
from repro.specs import OverlaySpec, SimSpec, SweepSpec


class TestCompile:
    def test_compile_by_name(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        assert isinstance(handle, CompiledHandle)
        assert handle.overlay.name == "V1x4"
        assert handle.program is not None
        assert handle.configuration.size_bytes > 0
        assert not handle.schedule_only

    def test_compile_resolves_spec(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        assert handle.spec == OverlaySpec("v1", depth=4, fixed=False)

    def test_compile_source(self):
        from repro.kernels.library import GRADIENT_C_SOURCE

        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile(source=GRADIENT_C_SOURCE, overlay=OverlaySpec("v1"))
        assert handle.kernel_name == "gradient"
        assert handle.overlay.depth == 4
        # Warm source call reuses the cache's source fast path.
        again = tc.compile(source=GRADIENT_C_SOURCE, overlay=OverlaySpec("v1"))
        assert again.schedule is handle.schedule
        assert tc.cache.stats.source_hits == 1

    def test_compile_rejects_raw_kwargs_style(self):
        tc = Toolchain(cache=ScheduleCache())
        with pytest.raises(ConfigurationError):
            tc.compile("gradient", "v1")  # a spec object is required

    def test_compile_kernel_and_source_mutually_exclusive(self):
        tc = Toolchain(cache=ScheduleCache())
        with pytest.raises(ConfigurationError):
            tc.compile("gradient", OverlaySpec(), source="void f() {}")

    def test_warm_compile_hits_the_injected_cache(self):
        tc = Toolchain(cache=ScheduleCache())
        first = tc.compile("gradient", OverlaySpec("v1"))
        second = tc.compile("gradient", OverlaySpec("v1"))
        assert second.schedule is first.schedule
        assert tc.cache.stats.hits == 1
        assert tc.cache.stats.misses == 1


class TestSessionIsolation:
    def test_separate_caches_share_no_compiled_state(self):
        a = Toolchain(cache=ScheduleCache())
        b = Toolchain(cache=ScheduleCache())
        ha = a.compile("gradient", OverlaySpec("v1"))
        hb = b.compile("gradient", OverlaySpec("v1"))
        assert ha.schedule is not hb.schedule
        assert ha.program is not hb.program
        assert ha.configuration is not hb.configuration
        assert a.cache.stats.misses == 1 and b.cache.stats.misses == 1
        # ... and neither session touched the other's cache.
        assert len(a.cache) == 1 and len(b.cache) == 1

    def test_shared_cache_shares_compiled_state(self):
        cache = ScheduleCache()
        a = Toolchain(cache=cache)
        b = Toolchain(cache=cache)
        ha = a.compile("gradient", OverlaySpec("v1"))
        hb = b.compile("gradient", OverlaySpec("v1"))
        assert ha.schedule is hb.schedule
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_runtime_uses_session_cache(self):
        tc = Toolchain(cache=ScheduleCache())
        runtime = tc.runtime(OverlaySpec("v3", depth=8))
        runtime.register("gradient")
        assert tc.cache.stats.misses == 1
        # The same compile through the session is now warm.
        tc.compile("gradient", OverlaySpec("v3", depth=8))
        assert tc.cache.stats.hits == 1


class TestEvaluate:
    def test_evaluate_handle_matches_kernel_plus_spec(self, gradient):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile(gradient, OverlaySpec("v1"))
        other = Toolchain(cache=ScheduleCache())
        assert tc.evaluate(handle) == other.evaluate(gradient, OverlaySpec("v1"))

    def test_evaluate_returns_fresh_copies(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        first = tc.evaluate(handle)
        first.measured_ii = 999.0  # caller-side mutation...
        second = tc.evaluate(handle)
        assert second.measured_ii is None  # ...never leaks into the memo
        assert first is not second

    def test_warm_evaluate_does_no_graph_work(self, monkeypatch):
        import repro.metrics.models as models
        import repro.metrics.performance as performance

        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        warm_reference = tc.evaluate(handle)

        def _boom(*args, **kwargs):  # pragma: no cover - would mean a failure
            raise AssertionError("analytic graph work re-ran on a warm evaluate")

        # The closed-form core lives in the model layer since the models
        # refactor; dfg_depth (reporting metadata) stays in performance.py.
        monkeypatch.setattr(models, "estimate_resources", _boom)
        monkeypatch.setattr(models, "analytic_ii", _boom)
        monkeypatch.setattr(performance, "dfg_depth", _boom)
        monkeypatch.setattr(performance, "analytic_ii", _boom)
        assert tc.evaluate(handle) == warm_reference

    def test_evaluate_with_sim_spec_measures(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        result = tc.evaluate(handle, sim=SimSpec(num_blocks=8))
        assert result.simulated
        assert result.measured_ii == pytest.approx(6)
        assert result.reference_match is True

    def test_evaluate_kernel_plus_spec_without_handle(self, gradient):
        tc = Toolchain(cache=ScheduleCache())
        result = tc.evaluate(gradient, OverlaySpec("v1"))
        assert result.ii == pytest.approx(6)


class TestSimulate:
    def test_simulate_engines_agree(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("mibench", OverlaySpec("v1"))
        fast = tc.simulate(handle, SimSpec(engine="fast", num_blocks=16))
        cycle = tc.simulate(handle, SimSpec(engine="cycle", num_blocks=16))
        assert fast.measured_ii == cycle.measured_ii
        assert fast.total_cycles == cycle.total_cycles

    def test_simulate_requires_handle(self):
        tc = Toolchain(cache=ScheduleCache())
        with pytest.raises(ConfigurationError):
            tc.simulate("gradient", SimSpec())


class TestSweep:
    def test_sweep_spec_through_session(self):
        tc = Toolchain(cache=ScheduleCache())
        spec = SweepSpec(
            kernels=("gradient", "chebyshev"),
            overlays=(OverlaySpec("v1"),),
            sim=SimSpec(engine="fast", num_blocks=8),
            jobs=1,
        )
        results = tc.sweep(spec)
        assert [r.kernel for r in results] == ["gradient", "chebyshev"]
        assert all(r.matches_reference for r in results)
        # Serial sweeps compile through the injected session cache.
        assert tc.cache.stats.misses == 2

    def test_sweep_requires_spec(self):
        tc = Toolchain(cache=ScheduleCache())
        with pytest.raises(ConfigurationError):
            tc.sweep([SweepPoint(kernel="gradient", overlay=OverlaySpec("v1"))])


class TestDepthOverrideBugfix:
    """A depth override on V1/V2 must describe the overlay it compiles."""

    @pytest.mark.parametrize("variant", ["v1", "v2"])
    def test_depth_override_performance_describes_compiled_overlay(self, variant):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec(variant, depth=6))
        performance = tc.evaluate(handle)
        assert handle.overlay.depth == 6
        assert performance.overlay_depth == 6
        assert performance.overlay_name == handle.overlay.name
        assert performance.fmax_mhz == pytest.approx(
            overlay_fmax_mhz(handle.overlay.variant, 6)
        )

    def test_auto_depth_unchanged(self):
        tc = Toolchain(cache=ScheduleCache())
        assert tc.evaluate("gradient", OverlaySpec("v1")).overlay_depth == 4


class TestScheduleOnlyHandles:
    def _overflowing_kernel(self):
        """A kernel whose schedule is fine but whose register pressure
        exceeds the rotating register file (codegen fails)."""
        from repro.kernels.generators import dfg_from_level_profile

        return dfg_from_level_profile(
            [24, 20, 16, 12, 8, 4, 2, 1], num_inputs=8, name="fat"
        )

    def _instruction_overflow_kernel(self):
        """A chain that overflows a depth-2 V3 FU's instruction memory while
        its register pressure still fits (codegen fails, simulation works)."""
        from repro.dfg.builder import DFGBuilder

        builder = DFGBuilder("long_chain")
        value = builder.input("a")
        for index in range(20):
            value = builder.add(value, builder.const(index + 1))
        builder.output(value, "out")
        return builder.build()

    def test_schedule_only_fallback_evaluates(self):
        dfg = self._overflowing_kernel()
        tc = Toolchain(cache=ScheduleCache())
        with pytest.raises(CodegenError):
            tc.compile(dfg, OverlaySpec("v3"))
        handle = tc.compile(dfg, OverlaySpec("v3"), allow_schedule_only=True)
        assert handle.schedule_only
        assert tc.evaluate(handle).ii > 0

    def test_schedule_only_fallback_still_simulates(self):
        dfg = self._instruction_overflow_kernel()
        tc = Toolchain(cache=ScheduleCache())
        spec = OverlaySpec("v3", depth=2)
        with pytest.raises(CodegenError):
            tc.compile(dfg, spec)
        handle = tc.compile(dfg, spec, allow_schedule_only=True)
        assert handle.schedule_only
        # The simulator runs from the schedule, so codegen-overflow kernels
        # still simulate (what evaluate(..., sim=SimSpec()) relies on).
        result = tc.simulate(handle, SimSpec(num_blocks=4))
        assert result.matches_reference

    def test_evaluate_kernel_simulate_keeps_working_for_overflow_kernels(self):
        tc = Toolchain(cache=ScheduleCache())
        result = tc.evaluate(
            self._instruction_overflow_kernel(), OverlaySpec("v3", depth=2), sim=SimSpec()
        )
        assert result.simulated
        assert result.reference_match is True

    def test_runtime_rejects_non_spec_arguments(self):
        from repro.runtime import OverlayRuntime

        with pytest.raises(ConfigurationError):
            OverlayRuntime("v3")  # a variant name is not an OverlaySpec
        with pytest.raises(ConfigurationError):
            OverlayRuntime(SimSpec())  # specs in the wrong slot fail loudly
        with pytest.raises(ConfigurationError):
            OverlayRuntime(OverlaySpec("v3"), "fast")

    def test_simulated_evaluate_latency_is_consistent(self):
        from repro.metrics.performance import latency_ns

        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        performance = tc.evaluate(handle, sim=SimSpec(num_blocks=8))
        simulation = tc.simulate(handle, SimSpec(num_blocks=8))
        assert performance.latency_cycles == float(simulation.latency_cycles)
        assert performance.latency_ns == pytest.approx(
            latency_ns(performance.latency_cycles, performance.fmax_mhz)
        )

    def test_source_compile_allow_schedule_only(self):
        tc = Toolchain(cache=ScheduleCache())
        # 20 chained adds: fits V3's RF but overflows a depth-2 FU's
        # instruction memory (codegen fails, schedule-only fallback works).
        lines = ["int t0 = a + 1;"] + [
            f"int t{i} = t{i - 1} + {i + 1};" for i in range(1, 20)
        ]
        source = (
            "void long_chain(int a, int *out) {\n"
            + "\n".join(lines)
            + "\n*out = t19;\n}"
        )
        spec = OverlaySpec("v3", depth=2)
        with pytest.raises(CodegenError):
            tc.compile(source=source, overlay=spec)
        handle = tc.compile(source=source, overlay=spec, allow_schedule_only=True)
        assert handle.schedule_only
        assert tc.evaluate(handle).ii > 0

    def test_isolated_session_sweep_never_touches_default_cache(self):
        from repro.engine.cache import default_cache

        tc = Toolchain(cache=ScheduleCache())
        shared = default_cache()
        before = (shared.stats.hits, shared.stats.misses)
        tc.sweep(
            SweepSpec(
                kernels=("chebyshev",),
                overlays=(OverlaySpec("v1"),),
                sim=SimSpec(engine="fast", num_blocks=4),
            )
        )
        assert tc.cache.stats.misses == 1
        assert (shared.stats.hits, shared.stats.misses) == before

    def test_isolated_session_tune_never_touches_default_cache(self):
        # The tuner compiles every candidate for triage and simulates the
        # frontier; both paths must stay inside the session-injected cache,
        # as a session's sweeps do.
        from repro.engine.cache import default_cache

        tc = Toolchain(cache=ScheduleCache())
        shared = default_cache()
        before = (shared.stats.hits, shared.stats.misses)
        result = tc.tune(
            "chebyshev",
            variants=("v1", "v2"),
            schedulers=("linear",),
            budget=1,
            jobs=1,
            sim=SimSpec(engine="fast", num_blocks=4),
        )
        assert result.best is not None and result.best.simulated
        assert tc.cache.stats.misses > 0
        assert (shared.stats.hits, shared.stats.misses) == before


class TestOneResolutionPerRequest:
    """A compile resolves its request to a cache key once and runs each
    stage at most once; a codegen failure is never compiled again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.api
        import repro.engine.cache
        import repro.frontend.lexer
        from repro.frontend.cache import FrontendCache

        counts = collections.Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for owner, attr, name in (
            (repro.api, "dfg_fingerprint", "fingerprint"),
            (repro.engine.cache, "dfg_fingerprint", "fingerprint"),
            (FrontendCache, "dfg", "frontend"),
            (repro.frontend.lexer, "source_hash", "source hash"),
            (repro.engine.cache, "schedule_kernel", "schedule"),
            (repro.engine.cache, "generate_program", "codegen"),
        ):
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
        return counts

    _overflowing_kernel = TestScheduleOnlyHandles._overflowing_kernel

    def test_source_compiles(self, calls):
        from repro.kernels.library import GRADIENT_C_SOURCE

        tc = Toolchain(cache=ScheduleCache())
        tc.compile(source=GRADIENT_C_SOURCE, overlay=OverlaySpec("v1"))
        assert calls == {
            "source hash": 1, "frontend": 1, "fingerprint": 1,
            "schedule": 1, "codegen": 1,
        }
        calls.clear()
        tc.compile(source=GRADIENT_C_SOURCE, overlay=OverlaySpec("v1"))
        assert calls == {"source hash": 1}

    def test_schedule_only_compiles(self, calls):
        tc = Toolchain(cache=ScheduleCache())
        spec = OverlaySpec("v3")
        cold = tc.compile(self._overflowing_kernel(), spec, allow_schedule_only=True)
        assert (calls["schedule"], calls["codegen"]) == (1, 1)
        calls.clear()
        warm = tc.compile(self._overflowing_kernel(), spec, allow_schedule_only=True)
        assert (calls["schedule"], calls["codegen"]) == (0, 0)
        assert warm.schedule is cold.schedule and warm.schedule_only
        # Without the fallback the recorded error re-raises, still stage-free.
        with pytest.raises(CodegenError, match="rotating register entries"):
            tc.compile(self._overflowing_kernel(), spec)
        assert (calls["schedule"], calls["codegen"]) == (0, 0)
        assert tc.cache.stats.misses == 1
