"""Deep kernels on fixed-depth overlays: where the fast-forward's ramp jumps pay.

The backpressure-heavy region — deep kernels folded onto fixed-depth V3-V5
overlays at small FIFO depths — is where inter-stage FIFOs keep filling for
O(fifo_depth x depth) warm-up blocks before every stage advances at one
rate.  This suite pins down the block recurrence's jumps there:

* bit-identical results against the cycle-accurate golden reference across
  the *whole* kernel library on V3/V4/V5 at fifo_depth in {2, 4, 8, 32},
  including FIFO high-water marks and the measured II;
* on the deep kernels, fast-forwarded runs of the fast and the batched
  engine equal each engine's own ``fast_forward=False`` runs field by field;
* the recurrence jumps while the FIFOs are still filling, once each stage
  repeats with a constant shift of its own (a ramp jump), and within the
  analytic warm-up bound ``W(depth, fifo_depth, II)``, the cross-check
  oracle;
* the jumps are the only fast-forward: no simulator entry point, CLI flag
  or sweep row takes or reports a ``detector``;
* the satellite fixes: the schedule-only compile-cache path is memoised and
  runs too short to measure an II report ``None`` instead of crashing the
  sweep.
"""

import inspect

import pytest

from repro.engine.batchsim import BatchSimulator
from repro.engine.cache import CacheKey, ScheduleCache
from repro.engine.fastsim import (
    FastSimulator,
    steady_state_warmup_bound,
    warmup_bound_blocks,
)
from repro.engine.sweep import SweepPoint, render_sweep_table, run_point
from repro.errors import CodegenError
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.kernels.generators import dfg_from_level_profile
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V3, V4, V5
from repro.schedule import schedule_kernel
from repro.sim.overlay import OverlaySimulator, simulate_schedule
from repro.specs import OverlaySpec, SimSpec

#: Everything the engines must agree on exactly (same list as the main
#: equivalence suite; repeated here so this file stands alone).
COMPARED_FIELDS = (
    "kernel_name",
    "overlay_name",
    "num_blocks",
    "outputs",
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "latency_cycles",
    "fu_stats",
    "fifo_high_water",
    "rf_high_water",
    "rf_per_block_high_water",
)

#: The deepest library kernels — the ones that keep filling inter-stage
#: FIFOs for many blocks when folded onto a depth-8 overlay.
DEEP_KERNELS = ("poly7", "poly8", "poly6", "qspline")

WRITE_BACK_VARIANTS = [V3, V4, V5]
FIFO_DEPTHS = (2, 4, 8, 32)


def _fixed_schedule(name, variant, fifo_depth, depth=8):
    dfg = get_kernel(name)
    overlay = LinearOverlay.fixed(variant, depth, fifo_depth=fifo_depth)
    return schedule_kernel(dfg, overlay)


def assert_engines_identical(schedule, num_blocks, seed=3):
    blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    cycle = OverlaySimulator(schedule).run(blocks)
    fast = FastSimulator(schedule).run(blocks)
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(cycle, field), (
            f"{schedule.kernel_name} on {schedule.overlay.name} "
            f"(fifo {schedule.overlay.fifo_depth}): field {field!r} diverges"
        )
    return fast


class TestFixedDepthLibraryEquivalence:
    """Whole library x V3/V4/V5 x fifo_depth in {2,4,8,32}: exact equality."""

    @pytest.mark.parametrize("fifo_depth", FIFO_DEPTHS)
    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    def test_library_matches_cycle_engine(self, name, variant, fifo_depth):
        schedule = _fixed_schedule(name, variant, fifo_depth)
        assert_engines_identical(schedule, num_blocks=20)

    @pytest.mark.parametrize("fifo_depth", (2, 8))
    @pytest.mark.parametrize("name", DEEP_KERNELS[:2])
    def test_deep_kernels_long_stream_with_backpressure(self, name, fifo_depth):
        """64-block streams cross the recurrence's look-back window many times."""
        schedule = _fixed_schedule(name, V3, fifo_depth)
        fast = assert_engines_identical(schedule, num_blocks=64, seed=11)
        # The small-FIFO region really is backpressure-heavy.
        assert any(s.backpressure_stall_cycles for s in fast.fu_stats)

    def test_fifo_high_water_tracks_the_fill_exactly(self):
        """High-water marks are the part a sloppy ramp jump would corrupt."""
        schedule = _fixed_schedule("poly7", V3, 32)
        blocks = random_input_blocks(schedule.dfg, 300, seed=5)
        cycle = OverlaySimulator(schedule).run(blocks)
        fast = FastSimulator(schedule).run(blocks)
        assert fast.fifo_high_water == cycle.fifo_high_water
        assert fast.measured_ii == cycle.measured_ii


class TestDetectorAgreement:
    """Fast-forward jumps == no-fast-forward, field by field."""

    @pytest.mark.parametrize("engine", ["fast", "batched"])
    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    def test_fast_forward_agrees_with_no_fast_forward(self, variant, engine):
        if engine == "batched":
            pytest.importorskip("numpy")
        simulator_class = {"fast": FastSimulator, "batched": BatchSimulator}[engine]
        schedule = _fixed_schedule("poly7", variant, 8)
        blocks = random_input_blocks(schedule.dfg, 80, seed=7)
        simulator = simulator_class(schedule)
        jumped = simulator.run(blocks)
        off = simulator_class(schedule, fast_forward=False).run(blocks)
        assert simulator.fast_forward_events, f"{engine} engine never fast-forwarded"
        for field in COMPARED_FIELDS:
            assert getattr(jumped, field) == getattr(off, field), field


class TestEarlySteadyStateSkip:
    """The block recurrence jumps before the FIFOs fill."""

    def test_first_jump_lands_long_before_the_deep_fill_ends(self):
        schedule = _fixed_schedule("poly7", V3, 32)
        blocks = random_input_blocks(schedule.dfg, 400, seed=3)
        simulator = FastSimulator(schedule)
        simulator.run(blocks)
        assert simulator.fast_forward_events, "the block recurrence never jumped"
        first = simulator.fast_forward_events[0]
        # No steady jump (every stage at one rate) can come before the
        # ~fifo_depth x depth block fill transient ends (near the warm-up
        # bound); the recurrence jumps within a couple of dozen completions,
        # once each stage repeats with a constant shift of its own while a
        # FIFO is still filling (a ramp jump).
        assert first["kind"] == "ramp"
        assert first["completed"] * 4 <= warmup_bound_blocks(schedule)

    def test_ramp_jumps_before_full_steady_state(self):
        """poly7 on V4/fifo32 never reaches full steady state in 600 blocks."""
        schedule = _fixed_schedule("poly7", V4, 32)
        blocks = random_input_blocks(schedule.dfg, 600, seed=3)
        simulator = FastSimulator(schedule)
        result = simulator.run(blocks)
        off = FastSimulator(schedule, fast_forward=False).run(blocks)
        assert simulator.fast_forward_events
        assert all(e["kind"] == "ramp" for e in simulator.fast_forward_events)
        for field in COMPARED_FIELDS:
            assert getattr(result, field) == getattr(off, field), field

    @pytest.mark.parametrize("fifo_depth", (8, 32))
    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    @pytest.mark.parametrize("name", DEEP_KERNELS)
    def test_warmup_bound_is_a_true_oracle(self, name, variant, fifo_depth):
        """The first jump must land inside W(depth, fifo_depth, II)."""
        schedule = _fixed_schedule(name, variant, fifo_depth)
        bound_cycles = steady_state_warmup_bound(schedule)
        bound_blocks = warmup_bound_blocks(schedule)
        num_blocks = bound_blocks + 40
        blocks = random_input_blocks(schedule.dfg, num_blocks, seed=13)
        simulator = FastSimulator(schedule)
        simulator.run(blocks)
        assert simulator.fast_forward_events, (
            f"no jump within {num_blocks} blocks on {schedule.overlay.name}"
        )
        first = simulator.fast_forward_events[0]
        assert first["completed"] <= bound_blocks
        assert first["cycle"] <= bound_cycles


class TestDetectorRetired:
    """The block recurrence's jumps are the only fast-forward: no layer takes
    a ``detector``."""

    @pytest.mark.parametrize(
        "entry_point",
        [FastSimulator, BatchSimulator, simulate_schedule],
        ids=lambda entry_point: entry_point.__name__,
    )
    def test_simulators_take_no_detector_keyword(self, entry_point):
        assert "detector" not in inspect.signature(entry_point).parameters

    def test_cli_rejects_detector_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kernels", "qspline", "--variants", "v3",
                  "--detector", "legacy", "--jobs", "1"])
        assert excinfo.value.code == 2
        assert "--detector" in capsys.readouterr().err

    def test_sweep_rows_and_table_have_no_detector_column(self):
        point = SweepPoint(
            "qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=8)
        )
        result = run_point(point)
        assert result.matches_reference
        assert "detector" not in result.as_row()
        assert "detector" not in render_sweep_table([result]).splitlines()[0]


# ---------------------------------------------------------------------------
# satellite fixes
# ---------------------------------------------------------------------------
def _fat_kernel():
    """A synthetic kernel whose schedule is fine but whose register pressure
    exceeds every variant's rotating register file (codegen fails)."""
    return dfg_from_level_profile(
        [24, 20, 16, 12, 8, 4, 2, 1], num_inputs=8, name="fat"
    )


class TestScheduleOnlyMemoisation:
    def test_codegen_failure_path_is_memoised(self):
        cache = ScheduleCache()
        overlay = LinearOverlay.fixed(V3, 8)
        key = CacheKey.for_mapping(_fat_kernel(), overlay)
        with pytest.raises(CodegenError):
            cache.get_or_compile(_fat_kernel(), overlay)
        first = cache.get_schedule(key, _fat_kernel(), overlay)
        second = cache.get_schedule(key, _fat_kernel(), overlay)
        # Same object: both calls were served by the failed compile's record
        # instead of rescheduling a fresh DFG copy.
        assert first is second
        assert cache.stats.schedule_hits == 2

    def test_evaluate_kernel_keeps_working_for_codegen_failures(self):
        from repro.api import Toolchain

        result = Toolchain(cache=ScheduleCache()).evaluate(_fat_kernel(), OverlaySpec("v3"))
        assert result.ii > 0
        assert result.throughput_gops > 0

    def test_full_compile_still_preferred_when_it_succeeds(self):
        cache = ScheduleCache()
        overlay = LinearOverlay.fixed(V3, 8)
        compiled = cache.get_or_compile(get_kernel("qspline"), overlay)
        key = CacheKey.for_mapping(get_kernel("qspline"), overlay)
        schedule = cache.get_schedule(key, get_kernel("qspline"), overlay)
        assert schedule is compiled.schedule


class TestUnmeasurableII:
    def test_single_block_has_no_measured_ii(self):
        schedule = _fixed_schedule("qspline", V3, 8)
        for engine in ("cycle", "fast"):
            result = simulate_schedule(schedule, num_blocks=1, engine=engine)
            assert result.measured_ii is None
            assert result.matches_reference

    def test_run_point_reports_none_and_falls_back_to_analytic(self):
        point = SweepPoint(
            "qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=1)
        )
        result = run_point(point)
        assert result.measured_ii is None
        assert result.latency_cycles > 0
        # Throughput falls back to the analytic II instead of crashing.
        expected = result.analytic_ii
        assert result.throughput_gops == pytest.approx(
            get_kernel("qspline").num_operations * result.fmax_mhz * 1e6
            / expected / 1e9
        )
        table = render_sweep_table([result])
        assert " - " in table or " -\n" in table or "- " in table

    def test_two_blocks_measure_again(self):
        point = SweepPoint(
            "qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=2)
        )
        assert run_point(point).measured_ii is not None
