"""Fast-engine equivalence: identical results to the cycle-accurate simulator.

The fast engine (``repro.engine.fastsim``) must be indistinguishable from
:class:`~repro.sim.overlay.OverlaySimulator` in everything a caller can
observe: output values, per-block completion cycles, total cycles, measured
II, latency, per-FU statistics and FIFO/RF high-water marks.  These tests
assert exact equality — not approximate — across the whole kernel library on
the V1 and V2 (multilane) overlays, on the write-back variants, with and
without the steady-state fast-forward, and through the ``simulate_schedule``
engine switch.
"""

import pytest

from repro.engine.fastsim import FastSimulator
from repro.errors import ConfigurationError, SimulationError
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2, V3, V4, V5
from repro.schedule import schedule_kernel
from repro.sim.overlay import OverlaySimulator, simulate_schedule

#: Every field of SimulationResult the two engines must agree on exactly.
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


def _schedule_for(name, variant, fixed_depth=None):
    dfg = get_kernel(name)
    if fixed_depth:
        overlay = LinearOverlay.fixed(variant, fixed_depth)
    else:
        overlay = LinearOverlay.for_kernel(variant, dfg)
    return schedule_kernel(dfg, overlay)


def assert_identical(name, variant, fixed_depth=None, num_blocks=10, seed=3):
    schedule = _schedule_for(name, variant, fixed_depth)
    blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    cycle = OverlaySimulator(schedule).run(blocks)
    fast = FastSimulator(schedule).run(blocks)
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(cycle, field), (
            f"{name}/{variant.name}: field {field!r} diverges"
        )


class TestCriticalPathEquivalence:
    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    @pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2-multilane"])
    def test_full_library_matches_cycle_engine(self, name, variant):
        assert_identical(name, variant)

    @pytest.mark.parametrize("name", ["gradient", "qspline"])
    def test_baseline_variant_matches(self, name):
        assert_identical(name, BASELINE)

    def test_single_block(self):
        assert_identical("gradient", V1, num_blocks=1)

    def test_odd_multilane_split(self):
        # 7 blocks over 2 lanes: lane 0 gets 4, lane 1 gets 3.
        assert_identical("mibench", V2, num_blocks=7)


class TestFixedDepthEquivalence:
    @pytest.mark.parametrize("variant", [V3, V4, V5], ids=["v3", "v4", "v5"])
    @pytest.mark.parametrize("name", ["qspline", "poly7"])
    def test_write_back_overlays_match(self, name, variant):
        assert_identical(name, variant, fixed_depth=8)


class TestSteadyStateFastForward:
    """Long streams exercise the periodic-steady-state skip."""

    @pytest.mark.parametrize(
        "name,variant",
        [("gradient", V1), ("qspline", V1), ("qspline", V2), ("sgfilter", V1)],
        ids=["gradient-v1", "qspline-v1", "qspline-v2", "sgfilter-v1"],
    )
    def test_long_stream_matches_cycle_engine(self, name, variant):
        assert_identical(name, variant, num_blocks=96, seed=11)

    def test_fast_forward_actually_engages(self):
        """At 96 blocks the engine must skip, not silently run every cycle."""
        schedule = _schedule_for("qspline", V1)
        blocks = random_input_blocks(schedule.dfg, 96, seed=11)
        simulator = FastSimulator(schedule)
        simulator.run(blocks)
        assert simulator.fast_forward_events

    def test_fast_forward_disabled_still_matches(self):
        schedule = _schedule_for("qspline", V1)
        blocks = random_input_blocks(schedule.dfg, 48, seed=5)
        with_ff = FastSimulator(schedule, fast_forward=True).run(blocks)
        without_ff = FastSimulator(schedule, fast_forward=False).run(blocks)
        for field in COMPARED_FIELDS:
            assert getattr(with_ff, field) == getattr(without_ff, field), field


class TestEngineSwitch:
    def test_simulate_schedule_fast_engine_verifies(self):
        schedule = _schedule_for("gradient", V1)
        result = simulate_schedule(schedule, num_blocks=16, engine="fast")
        assert result.matches_reference
        assert result.trace is None

    def test_fast_and_cycle_agree_through_wrapper(self):
        schedule = _schedule_for("chebyshev", V1)
        fast = simulate_schedule(schedule, num_blocks=20, engine="fast")
        cycle = simulate_schedule(schedule, num_blocks=20, engine="cycle")
        assert fast.outputs == cycle.outputs
        assert fast.completion_cycles == cycle.completion_cycles
        assert fast.measured_ii == cycle.measured_ii

    def test_unknown_engine_rejected(self):
        schedule = _schedule_for("gradient", V1)
        with pytest.raises(ConfigurationError):
            simulate_schedule(schedule, num_blocks=4, engine="warp")

    def test_trace_request_falls_back_to_cycle_engine(self):
        schedule = _schedule_for("gradient", V1)
        result = simulate_schedule(
            schedule, num_blocks=4, engine="fast", record_trace=True
        )
        assert result.trace is not None and result.trace.events

    def test_specific_values_match_reference_model(self):
        gradient = get_kernel("gradient")
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        blocks = [[1, 2, 3, 4, 5], [0, 0, 0, 0, 0], [10, -10, 3, 7, -7]]
        fast = FastSimulator(schedule).run(blocks)
        cycle = OverlaySimulator(schedule).run(blocks)
        assert fast.outputs == cycle.outputs


class TestFastEngineErrors:
    def test_empty_input_rejected(self):
        schedule = _schedule_for("gradient", V1)
        with pytest.raises(SimulationError):
            FastSimulator(schedule).run([])

    def test_wrong_block_width_rejected(self):
        schedule = _schedule_for("gradient", V1)
        with pytest.raises(SimulationError):
            FastSimulator(schedule).run([[1, 2, 3]])

    def test_deadlock_guard_raises(self):
        schedule = _schedule_for("gradient", V1)
        simulator = FastSimulator(schedule, max_cycles=3)
        with pytest.raises(SimulationError):
            simulator.run(random_input_blocks(get_kernel("gradient"), 4))


class TestMultilaneAggregation:
    """The merged V2 result reports all lanes, not just lane 0."""

    def test_stats_aggregate_across_lanes(self):
        schedule = _schedule_for("qspline", V2)
        blocks = random_input_blocks(schedule.dfg, 16, seed=0)
        merged = OverlaySimulator(schedule).run(blocks)
        lane0 = OverlaySimulator(schedule)._run_single_lane(blocks[0::2])
        lane1 = OverlaySimulator(schedule)._run_single_lane(blocks[1::2])
        for k in range(schedule.depth):
            assert (
                merged.fu_stats[k].loads_issued
                == lane0.fu_stats[k].loads_issued + lane1.fu_stats[k].loads_issued
            )
            assert (
                merged.fu_stats[k].instructions_issued
                == lane0.fu_stats[k].instructions_issued
                + lane1.fu_stats[k].instructions_issued
            )

    def test_high_water_marks_take_lane_maximum(self):
        schedule = _schedule_for("qspline", V2)
        blocks = random_input_blocks(schedule.dfg, 9, seed=0)  # uneven lanes
        merged = OverlaySimulator(schedule).run(blocks)
        lane0 = OverlaySimulator(schedule)._run_single_lane(blocks[0::2])
        lane1 = OverlaySimulator(schedule)._run_single_lane(blocks[1::2])
        for i in range(len(merged.fifo_high_water)):
            assert merged.fifo_high_water[i] == max(
                lane0.fifo_high_water[i], lane1.fifo_high_water[i]
            )
        for i in range(len(merged.rf_high_water)):
            assert merged.rf_high_water[i] == max(
                lane0.rf_high_water[i], lane1.rf_high_water[i]
            )
