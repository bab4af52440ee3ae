"""Registry-wide scheduler contract suite (the pluggable-scheduling PR gate).

Three layers of guarantees:

* **registry mechanics** — lookup and registration (decorator form
  included); duplicate/unknown handling and built-in protection are tested
  once for every registry in ``tests/test_registries.py``;
* **the strategy contract** — every registered strategy, on every library
  kernel x every FU variant's default overlay, must produce a schedule that
  passes :func:`repro.schedule.ordering.verify_ordering`, respects the FU
  instruction-memory capacity, and simulates to the golden reference outputs
  on both the cycle-accurate simulator and the fast engine (which must agree
  with each other);
* **bit-identity of the default** — ``scheduler="auto"`` compiles exactly
  the schedules the pre-registry ``schedule_kernel`` dispatch produced,
  asserted library-wide, so the refactor cannot have drifted the paper's
  numbers;

plus the modulo-specific end-to-end checks (codegen -> sim/fastsim
agreement, measured II lower-bounded by the analytic MII) and the
scheduler-axis plumbing through specs, cache keys, sweeps and the CLI.
"""

import json

import pytest

from repro.api import Toolchain
from repro.engine.cache import CacheKey, ScheduleCache
from repro.engine.sweep import build_grid, run_sweep_spec
from repro.errors import (
    CodegenError,
    ConfigurationError,
    InfeasibleScheduleError,
)
from repro.kernels.library import get_kernel, kernel_names
from repro.kernels.reference import reference_outputs, random_input_blocks
from repro.overlay.fu import get_variant
from repro.schedule import (
    minimum_ii,
    schedule_kernel,
    schedule_with,
    scheduler_names,
    scheduler_strategies,
)
from repro.schedule.greedy import schedule_fixed_depth
from repro.schedule.linear import schedule_linear
from repro.schedule.ordering import verify_ordering
from repro.schedule.registry import (
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from repro.sim.overlay import simulate_schedule
from repro.specs import OverlaySpec, SimSpec, SweepSpec

ALL_VARIANTS = ("baseline", "v1", "v2", "v3", "v4", "v5")
STRATEGIES = ("auto", "linear", "clustered", "modulo", "alap")


def _default_overlay(variant_name, dfg):
    """The overlay the default spec policy builds for this kernel/variant."""
    return OverlaySpec(variant=variant_name).build_overlay(dfg)


# ---------------------------------------------------------------------------
# registry mechanics
# ---------------------------------------------------------------------------
class TestRegistryMechanics:
    def test_builtin_strategies_registered(self):
        names = scheduler_names()
        for name in STRATEGIES:
            assert name in names

    def test_strategy_rows_have_one_default(self):
        rows = [s.as_row() for s in scheduler_strategies()]
        assert sum(1 for row in rows if row["default"]) == 1
        assert all(row["description"] for row in rows)

    def test_register_decorator_and_unregister(self):
        @register_scheduler("test-linear-alias", description="test strategy")
        def _alias(dfg, overlay):
            return schedule_linear(dfg, overlay)

        try:
            assert "test-linear-alias" in scheduler_names()
            gradient = get_kernel("gradient")
            overlay = _default_overlay("v1", gradient)
            schedule = schedule_with("test-linear-alias", gradient, overlay)
            assert schedule.scheduler == "asap"
        finally:
            unregister_scheduler("test-linear-alias")
        assert "test-linear-alias" not in scheduler_names()

    def test_custom_strategy_selectable_through_toolchain(self):
        register_scheduler("test-custom", lambda d, o: schedule_linear(d, o))
        try:
            tc = Toolchain(cache=ScheduleCache(capacity=8))
            handle = tc.compile(
                "gradient", OverlaySpec(variant="v1", scheduler="test-custom")
            )
            assert handle.spec.scheduler == "test-custom"
            assert handle.key.scheduler == "test-custom"
            assert tc.simulate(handle, SimSpec(num_blocks=4)).matches_reference
        finally:
            unregister_scheduler("test-custom")


# ---------------------------------------------------------------------------
# the registry-wide strategy contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("variant_name", ALL_VARIANTS)
@pytest.mark.parametrize("kernel_name", kernel_names())
class TestStrategyContract:
    def _schedule(self, strategy, kernel_name, variant_name):
        dfg = get_kernel(kernel_name)
        overlay = _default_overlay(variant_name, dfg)
        try:
            schedule = schedule_with(strategy, dfg, overlay)
        except InfeasibleScheduleError:
            pytest.skip(
                f"{strategy} cannot map {kernel_name} onto {overlay.name}"
            )
        return dfg, overlay, schedule

    def test_ordering_and_capacity(self, strategy, kernel_name, variant_name):
        dfg, overlay, schedule = self._schedule(
            strategy, kernel_name, variant_name
        )
        assert len(schedule.stages) == overlay.depth
        scheduled_ops = {
            slot.value_id
            for stage in schedule.stages
            for slot in stage.slots
            if slot.kind.name == "COMPUTE"
        }
        assert scheduled_ops == {n.node_id for n in dfg.operations()}
        distance = overlay.variant.dependence_distance
        for stage in schedule.stages:
            violations = verify_ordering(dfg, stage.slots, distance)
            assert not violations, (
                f"{strategy}/{kernel_name}/{overlay.name} FU{stage.stage}: "
                + "; ".join(violations)
            )
            assert (
                stage.num_instructions
                <= overlay.variant.instruction_memory_depth
            ), (
                f"{strategy}/{kernel_name}/{overlay.name} FU{stage.stage} "
                f"overflows the instruction memory"
            )

    def test_simulates_to_reference_on_both_engines(
        self, strategy, kernel_name, variant_name
    ):
        dfg, overlay, schedule = self._schedule(
            strategy, kernel_name, variant_name
        )
        blocks = random_input_blocks(dfg, 5, seed=3)
        expected = reference_outputs(dfg, blocks)
        cycle = simulate_schedule(schedule, input_blocks=blocks, engine="cycle")
        fast = simulate_schedule(schedule, input_blocks=blocks, engine="fast")
        assert cycle.outputs == expected
        assert fast.outputs == expected
        assert fast.measured_ii == cycle.measured_ii
        assert fast.total_cycles == cycle.total_cycles


# ---------------------------------------------------------------------------
# default bit-identity (library-wide)
# ---------------------------------------------------------------------------
class TestDefaultBitIdentity:
    @pytest.mark.parametrize("variant_name", ALL_VARIANTS)
    def test_auto_matches_pre_registry_dispatch(self, variant_name):
        """The default spec compiles the exact pre-refactor schedules."""
        for kernel_name in kernel_names():
            dfg = get_kernel(kernel_name)
            overlay = _default_overlay(variant_name, dfg)
            expected = (
                schedule_fixed_depth(dfg, overlay)
                if overlay.fixed_depth
                else schedule_linear(dfg, overlay)
            )
            actual = schedule_kernel(get_kernel(kernel_name), overlay)
            assert actual.scheduler == expected.scheduler
            assert actual.assignment == expected.assignment
            for got, want in zip(actual.stages, expected.stages):
                assert got.load_order == want.load_order
                assert got.slots == want.slots

    def test_default_spec_keys_canonically_but_keeps_auto_in_spec(self):
        tc = Toolchain(cache=ScheduleCache(capacity=8))
        handle = tc.compile("gradient", OverlaySpec(variant="v1"))
        # The cache key canonicalises "auto" to the concrete strategy its
        # dispatch selects; the resolved spec keeps the requested name.
        assert handle.key.scheduler == "linear"
        assert handle.spec.scheduler == "auto"
        fixed = tc.compile("gradient", OverlaySpec(variant="v3"))
        assert fixed.key.scheduler == "clustered"

    def test_auto_shares_cache_entries_with_concrete_strategy(self):
        cache = ScheduleCache(capacity=8)
        tc = Toolchain(cache=cache)
        tc.compile("sgfilter", OverlaySpec(variant="v3"))
        assert cache.stats.misses == 1
        # An explicit "clustered" compile of the same pair is a cache hit:
        # auto is keyed as the strategy it dispatches to.
        tc.compile("sgfilter", OverlaySpec(variant="v3", scheduler="clustered"))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1


# ---------------------------------------------------------------------------
# the executable modulo path
# ---------------------------------------------------------------------------
class TestModuloEndToEnd:
    @pytest.mark.parametrize("variant_name", ("v1", "v3", "v4"))
    def test_codegen_and_engine_agreement(self, variant_name):
        """modulo compiles to a binary and both engines agree, per kernel."""
        tc = Toolchain(cache=ScheduleCache(capacity=64))
        for kernel_name in kernel_names():
            spec = OverlaySpec(variant=variant_name, scheduler="modulo")
            try:
                handle = tc.compile(kernel_name, spec)
            except CodegenError:
                # Register-file / instruction-memory overflow is a codegen
                # property, not a scheduling bug; the schedule-only path
                # still has to simulate correctly.
                handle = tc.compile(kernel_name, spec, allow_schedule_only=True)
            assert handle.schedule.scheduler == "modulo"
            cycle = tc.simulate(handle, SimSpec(engine="cycle", num_blocks=5))
            fast = tc.simulate(handle, SimSpec(engine="fast", num_blocks=5))
            assert cycle.matches_reference, kernel_name
            assert fast.matches_reference, kernel_name
            assert fast.outputs == cycle.outputs
            assert fast.measured_ii == cycle.measured_ii

    def test_measured_ii_within_minimum_ii_bound(self):
        """The overlay can never beat the idealised MII = max(ResMII, RecMII)."""
        for kernel_name in kernel_names():
            dfg = get_kernel(kernel_name)
            overlay = _default_overlay("v3", dfg)
            schedule = schedule_with("modulo", dfg, overlay)
            result = simulate_schedule(schedule, num_blocks=6, engine="fast")
            mii = minimum_ii(dfg, overlay.depth)
            assert result.measured_ii is not None
            assert result.measured_ii >= mii, kernel_name

    def test_modulo_infeasible_on_deep_kernel_feed_forward_fixed_overlay(self):
        poly7 = get_kernel("poly7")  # depth 13
        overlay = OverlaySpec(variant="v1", depth=8).build_overlay(poly7)
        with pytest.raises(InfeasibleScheduleError):
            schedule_with("modulo", poly7, overlay)


# ---------------------------------------------------------------------------
# plumbing: specs, cache keys, sweeps, CLI
# ---------------------------------------------------------------------------
class TestSchedulerPlumbing:
    def test_overlay_spec_validates_scheduler(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(scheduler="not-a-strategy")

    def test_overlay_spec_json_round_trip_with_scheduler(self):
        spec = OverlaySpec(variant="v3", depth=8, fixed=True, scheduler="modulo")
        assert OverlaySpec.from_json(spec.to_json()) == spec
        # Pre-PR JSON (no scheduler key) resolves to the default strategy.
        legacy = OverlaySpec.from_dict({"variant": "v1", "depth": 4})
        assert legacy.scheduler == "auto"

    def test_resolve_preserves_scheduler(self, gradient):
        resolved = OverlaySpec(variant="v1", scheduler="modulo").resolve(gradient)
        assert resolved.scheduler == "modulo"
        assert resolved.depth == 4

    def test_cache_keys_never_collide_across_strategies(self, gradient):
        overlay = _default_overlay("v3", gradient)
        distinct = ("linear", "clustered", "modulo")
        keys = {
            CacheKey.for_mapping(gradient, overlay, scheduler)
            for scheduler in distinct
        }
        assert len(keys) == len(distinct)
        filenames = {key.filename() for key in keys}
        assert len(filenames) == len(distinct)
        # "auto" canonicalises to the concrete strategy of its dispatch
        # (clustered on this fixed-depth overlay), sharing that entry.
        auto_key = CacheKey.for_mapping(gradient, overlay, "auto")
        assert auto_key == CacheKey.for_mapping(gradient, overlay, "clustered")

    def test_session_compiles_strategies_into_distinct_entries(self):
        cache = ScheduleCache(capacity=16)
        tc = Toolchain(cache=cache)
        # sgfilter (depth 9) genuinely clusters on a fixed depth-8 overlay.
        clustered = tc.compile("sgfilter", OverlaySpec("v3", scheduler="clustered"))
        modulo = tc.compile("sgfilter", OverlaySpec("v3", scheduler="modulo"))
        assert cache.stats.misses == 2
        assert clustered.schedule.scheduler == "greedy"
        assert modulo.schedule.scheduler == "modulo"
        # Warm re-compiles hit their own entries.
        tc.compile("sgfilter", OverlaySpec("v3", scheduler="clustered"))
        tc.compile("sgfilter", OverlaySpec("v3", scheduler="modulo"))
        assert cache.stats.misses == 2
        assert cache.stats.hits >= 2

    def test_sweep_spec_scheduler_axis(self):
        spec = SweepSpec(
            kernels=("gradient", "qspline"),
            overlays=(OverlaySpec("v3"),),
            schedulers=("clustered", "modulo"),
            sim=SimSpec(engine="fast", num_blocks=4),
            jobs=1,
        )
        assert len(spec) == 4
        assert SweepSpec.from_json(spec.to_json()) == spec
        results = run_sweep_spec(spec, cache=ScheduleCache(capacity=16))
        assert [r.scheduler for r in results] == [
            "clustered", "modulo", "clustered", "modulo",
        ]
        assert all(r.matches_reference for r in results)
        assert all("scheduler" in r.as_row() for r in results)

    def test_sweep_reports_infeasible_points_instead_of_aborting(self):
        # linear cannot map the depth-9 sgfilter onto a fixed depth-8
        # overlay; the grid must keep running and flag that one point.
        spec = SweepSpec(
            kernels=("sgfilter",),
            overlays=(OverlaySpec("v3"),),
            schedulers=("linear", "clustered"),
            sim=SimSpec(engine="fast", num_blocks=4),
            jobs=1,
        )
        results = run_sweep_spec(spec, cache=ScheduleCache(capacity=8))
        linear, clustered = results
        assert linear.infeasible and "sgfilter" in linear.error
        assert linear.measured_ii is None
        assert linear.matches_reference is None
        assert not clustered.infeasible
        assert clustered.matches_reference
        assert linear.as_row()["error"] == linear.error

    def test_sweep_spec_rejects_unknown_scheduler(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                kernels=("gradient",),
                overlays=(OverlaySpec("v1"),),
                schedulers=("warp",),
            )

    def test_build_grid_scheduler_axis(self):
        points = build_grid(
            kernels=["gradient"],
            overlays=[OverlaySpec("v3")],
            schedulers=["clustered", "modulo"],
        )
        assert [p.overlay.scheduler for p in points] == ["clustered", "modulo"]

    def test_evaluate_reports_strategy(self):
        tc = Toolchain(cache=ScheduleCache(capacity=8))
        handle = tc.compile("qspline", OverlaySpec("v3", scheduler="modulo"))
        result = tc.evaluate(handle)
        assert result.scheduler == "modulo"
        assert result.as_row()["scheduler"] == "modulo"


class TestSchedulerCli:
    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_schedulers_listing_json(self, capsys):
        code, out = self._run(["schedulers", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert {row["name"] for row in rows} >= set(STRATEGIES)
        defaults = [row["name"] for row in rows if row["default"]]
        assert defaults == ["auto"]

    def test_map_with_scheduler_flag(self, capsys):
        code, out = self._run(
            ["map", "--kernel", "qspline", "--variant", "v3",
             "--scheduler", "modulo"],
            capsys,
        )
        assert code == 0
        assert "modulo scheduling" in out

    def test_simulate_with_scheduler_flag(self, capsys):
        code, out = self._run(
            ["simulate", "--kernel", "gradient", "--variant", "v3",
             "--scheduler", "modulo", "--blocks", "5", "--engine", "fast"],
            capsys,
        )
        assert code == 0
        assert "reference OK" in out

    def test_sweep_with_schedulers_axis(self, capsys):
        code, out = self._run(
            ["sweep", "--kernels", "gradient", "--variants", "v3",
             "--schedulers", "clustered,modulo", "--blocks", "4",
             "--jobs", "1", "--json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["scheduler"] for row in rows] == ["clustered", "modulo"]

    def test_sweep_rejects_unknown_scheduler(self, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "--kernels", "gradient", "--schedulers", "warp"]
        )
        assert code == 2


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------
class TestSatelliteRegressions:
    def test_resized_regenerates_auto_name(self):
        from repro.overlay.architecture import LinearOverlay

        overlay = LinearOverlay.fixed("v3", 8)
        assert overlay.name == "V3x8"
        assert overlay.resized(4).name == "V3x4"

    def test_resized_preserves_custom_name(self):
        from repro.overlay.architecture import LinearOverlay

        overlay = LinearOverlay.fixed("v3", 8).resized(8)
        custom = LinearOverlay(
            variant=get_variant("v3"), depth=8, fixed_depth=True, name="mine"
        )
        assert custom.resized(4).name == "mine"
        assert overlay.name == "V3x8"

    def test_asap_assignment_none_skips_feasibility_check(self, qspline):
        from repro.schedule.asap import asap_assignment

        assert asap_assignment(qspline) == asap_assignment(qspline, None)

    def test_asap_assignment_zero_is_no_longer_a_sentinel(self, gradient):
        from repro.schedule.asap import asap_assignment

        with pytest.raises(InfeasibleScheduleError):
            asap_assignment(gradient, num_stages=0)


# ---------------------------------------------------------------------------
# outputs fed by a constant: no stage emits them, so every strategy refuses
# ---------------------------------------------------------------------------
CONSTANT_OUTPUT_SOURCES = (
    "int k(int a, int *o) { *o = a + 1; return 2+3; }",
    "int k(int a, int *o) { *o = a * a; return 7; }",
)


class TestConstantOutputs:
    @pytest.mark.parametrize("source", CONSTANT_OUTPUT_SOURCES)
    def test_every_variant_and_strategy_refuses(self, source):
        from repro.service.protocol import error_code_for

        toolchain = Toolchain(ScheduleCache())
        for variant in ALL_VARIANTS:
            for strategy in STRATEGIES:
                spec = OverlaySpec(variant=variant, scheduler=strategy)
                with pytest.raises(InfeasibleScheduleError) as caught:
                    toolchain.compile(source=source, overlay=spec, check=True)
                message = str(caught.value)
                assert "output O_return reads constant" in message, (variant, strategy)
                assert error_code_for(caught.value) == "E_INFEASIBLE"

    def test_refusal_names_the_constant(self):
        from repro.frontend.cparser import lower_c_kernel

        dfg = lower_c_kernel(CONSTANT_OUTPUT_SOURCES[1])
        const = dfg.node(dfg.outputs()[-1].operands[0])
        overlay = OverlaySpec("v1").build_overlay(dfg)
        with pytest.raises(InfeasibleScheduleError, match=f"{const.name} \\(value 7\\)"):
            schedule_with("linear", dfg, overlay)


# ---------------------------------------------------------------------------
# registry concurrency (the service PR: workers race user registrations)
# ---------------------------------------------------------------------------
class TestRegistryConcurrency:
    def test_parallel_distinct_registrations_all_land(self):
        import threading

        names = [f"conc_sched_{i}" for i in range(16)]
        barrier = threading.Barrier(len(names))
        errors = []

        def worker(name):
            barrier.wait()
            try:
                register_scheduler(name, schedule_linear, description=name)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in names]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            registered = scheduler_names()
            for name in names:
                assert name in registered
                assert get_scheduler(name).description == name
        finally:
            for name in names:
                unregister_scheduler(name)
        assert not set(names) & set(scheduler_names())

    def test_parallel_same_name_registration_has_one_winner(self):
        import threading

        K = 12
        barrier = threading.Barrier(K)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                register_scheduler("conc_sched_dup", schedule_linear)
            except ConfigurationError:
                with lock:
                    outcomes.append("lost")
            else:
                with lock:
                    outcomes.append("won")

        threads = [threading.Thread(target=worker) for _ in range(K)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert outcomes.count("won") == 1
            assert outcomes.count("lost") == K - 1
            assert "conc_sched_dup" in scheduler_names()
        finally:
            unregister_scheduler("conc_sched_dup")

    def test_lookups_race_registration_without_tearing(self):
        import threading

        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                register_scheduler("conc_sched_churn", schedule_linear, replace=True)
                unregister_scheduler("conc_sched_churn")

        def read():
            while not stop.is_set():
                try:
                    names = scheduler_names()
                    assert isinstance(names, list)
                    for strategy in scheduler_strategies():
                        assert strategy.name
                except BaseException as error:  # pragma: no cover
                    errors.append(error)
                    return

        workers = [threading.Thread(target=churn) for _ in range(2)] + [
            threading.Thread(target=read) for _ in range(2)
        ]
        for thread in workers:
            thread.start()
        import time

        time.sleep(0.3)
        stop.set()
        for thread in workers:
            thread.join(timeout=30)
        unregister_scheduler("conc_sched_churn")
        assert not errors
