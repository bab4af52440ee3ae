"""End-to-end tests for the cycle-accurate overlay simulator."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kernels import BENCHMARK_NAMES, get_kernel, reference
from repro.kernels.reference import evaluate_dfg, random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2, V3, V4, V5
from repro.schedule import analytic_ii, schedule_kernel
from repro.sim.fu import FUStats
from repro.sim.overlay import (
    OverlaySimulator,
    SimulationResult,
    _steady_state_ii,
    check_input_blocks,
    merge_lane_results,
    simulate_schedule,
    split_lane_blocks,
)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    @pytest.mark.parametrize("variant", [BASELINE, V1, V2])
    def test_critical_path_overlays_match_reference(self, name, variant):
        dfg = get_kernel(name)
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(variant, dfg))
        result = simulate_schedule(schedule, num_blocks=8, seed=1)
        assert result.matches_reference

    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    @pytest.mark.parametrize("variant", [V3, V4, V5])
    def test_fixed_depth_overlays_match_reference(self, name, variant):
        dfg = get_kernel(name)
        schedule = schedule_kernel(dfg, LinearOverlay.fixed(variant, 8))
        result = simulate_schedule(schedule, num_blocks=8, seed=2)
        assert result.matches_reference

    def test_specific_values_on_the_gradient_example(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        blocks = [[1, 2, 3, 4, 5], [0, 0, 0, 0, 0], [10, -10, 3, 7, -7]]
        result = OverlaySimulator(schedule).run(blocks)
        assert result.outputs == [evaluate_dfg(gradient, b) for b in blocks]

    def test_single_block_works(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        result = OverlaySimulator(schedule).run([[5, 4, 3, 2, 1]])
        assert result.outputs == [evaluate_dfg(gradient, [5, 4, 3, 2, 1])]

    def test_wrong_block_width_rejected(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        with pytest.raises(SimulationError):
            OverlaySimulator(schedule).run([[1, 2, 3]])

    def test_empty_input_rejected(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        with pytest.raises(SimulationError):
            OverlaySimulator(schedule).run([])


class TestTimingMeasurement:
    @pytest.mark.parametrize("name", ["gradient", "chebyshev", "mibench", "qspline", "poly6"])
    @pytest.mark.parametrize("variant", [BASELINE, V1, V2])
    def test_measured_ii_equals_analytic_ii(self, name, variant):
        dfg = get_kernel(name)
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(variant, dfg))
        result = simulate_schedule(schedule, num_blocks=16, seed=0)
        assert result.measured_ii == pytest.approx(analytic_ii(schedule), abs=0.01)

    @pytest.mark.parametrize("name", ["sgfilter", "poly5", "poly7", "poly8"])
    @pytest.mark.parametrize("variant", [V3, V4])
    def test_measured_ii_matches_fixed_depth_model(self, name, variant):
        dfg = get_kernel(name)
        schedule = schedule_kernel(dfg, LinearOverlay.fixed(variant, 8))
        result = simulate_schedule(schedule, num_blocks=16, seed=0)
        assert result.measured_ii == pytest.approx(analytic_ii(schedule), abs=0.01)

    def test_v2_halves_ii_but_not_latency(self, qspline):
        v1 = simulate_schedule(
            schedule_kernel(qspline, LinearOverlay.for_kernel(V1, qspline)), num_blocks=16
        )
        v2 = simulate_schedule(
            schedule_kernel(qspline, LinearOverlay.for_kernel(V2, qspline)), num_blocks=16
        )
        assert v2.measured_ii == pytest.approx(v1.measured_ii / 2, abs=0.1)
        assert v2.latency_cycles == pytest.approx(v1.latency_cycles, rel=0.15)

    def test_fixed_depth_reduces_latency_for_deep_kernels(self, poly7):
        """The paper's latency model (II x depth) favours the fixed-depth
        overlay for deep kernels; the measured first-block latency must at
        least not get worse despite the NOP padding."""
        from repro.metrics.performance import analytic_latency_cycles

        v1_schedule = schedule_kernel(poly7, LinearOverlay.for_kernel(V1, poly7))
        v3_schedule = schedule_kernel(poly7, LinearOverlay.fixed(V3, 8))
        assert analytic_latency_cycles(v3_schedule) < analytic_latency_cycles(v1_schedule)
        v1 = simulate_schedule(v1_schedule, num_blocks=12)
        v3 = simulate_schedule(v3_schedule, num_blocks=12)
        assert v3.latency_cycles <= v1.latency_cycles * 1.05

    def test_completion_cycles_are_monotonic(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        result = simulate_schedule(schedule, num_blocks=10)
        assert all(
            later > earlier
            for earlier, later in zip(result.completion_cycles, result.completion_cycles[1:])
        )

    def test_no_exec_stalls_in_steady_state_bottleneck_stage(self, gradient):
        """The bottleneck FU should issue back-to-back once the pipe is full."""
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        result = simulate_schedule(schedule, num_blocks=20)
        bottleneck_stats = result.fu_stats[0]
        issue_slots = bottleneck_stats.instructions_issued
        # Stalls only accumulate during pipeline fill, not per block.
        assert bottleneck_stats.exec_stall_cycles < result.total_cycles - issue_slots + 20


class TestStructuralChecks:
    def test_register_file_capacity_is_respected(self, benchmarks):
        for name, dfg in benchmarks.items():
            schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
            result = simulate_schedule(schedule, num_blocks=6)
            assert max(result.rf_high_water) <= V1.rf_depth, name

    def test_fifo_occupancy_stays_bounded(self, qspline):
        schedule = schedule_kernel(qspline, LinearOverlay.for_kernel(V1, qspline))
        result = simulate_schedule(schedule, num_blocks=24)
        # Index 0 is the (unbounded) DMA-fed input stream and the last entry
        # the output collector; the inter-FU channels in between must respect
        # the configured FIFO depth.
        inter_stage = result.fifo_high_water[1:-1]
        assert inter_stage and max(inter_stage) <= schedule.overlay.fifo_depth

    def test_trace_recording_produces_events(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        result = simulate_schedule(schedule, num_blocks=4, record_trace=True)
        assert result.trace is not None
        assert result.trace.events
        kinds = {event.kind for event in result.trace.events}
        assert kinds == {"load", "exec"}

    def test_summary_mentions_verification(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        result = simulate_schedule(schedule, num_blocks=4)
        assert "OK" in result.summary()

    def test_deadlock_guard_raises_instead_of_hanging(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        simulator = OverlaySimulator(schedule, max_cycles=3)
        with pytest.raises(SimulationError):
            simulator.run(random_input_blocks(gradient, 4))


def _lane(outputs, completion, total, stats, fifo, rf, rf_block):
    return SimulationResult(
        kernel_name="k",
        overlay_name="lane",
        num_blocks=len(outputs),
        outputs=outputs,
        completion_cycles=completion,
        total_cycles=total,
        measured_ii=None,
        latency_cycles=completion[0] + 1,
        fu_stats=[FUStats(*row) for row in stats],
        fifo_high_water=fifo,
        rf_high_water=rf,
        rf_per_block_high_water=rf_block,
    )


class TestLaneHelpers:
    """The lane helpers every engine shares, on hand-built lane results:
    no engine comparison can see a fault in them."""

    def test_blocks_are_dealt_round_robin_at_an_odd_count(self):
        blocks = [[0], [1], [2], [3], [4]]
        assert split_lane_blocks(blocks, 2) == [[[0], [2], [4]], [[1], [3]]]
        assert split_lane_blocks(blocks, 3) == [[[0], [3]], [[1], [4]], [[2]]]

    def test_merge_restores_global_order_and_combines_the_counters(self, qspline):
        schedule = schedule_kernel(qspline, LinearOverlay.for_kernel(V2, qspline))
        assert schedule.variant.lanes == 2
        blocks = [[b] for b in range(5)]
        lane0 = _lane(
            [[10], [12], [14]], [26, 40, 45], 48,
            [(3, 4, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10)], [1, 4, 2], [3, 1], [2, 7],
        )
        lane1 = _lane(
            [[11], [13]], [24, 30], 50,
            [(1, 1, 2, 3, 4, 5), (1, 1, 6, 5, 4, 3)], [3, 2, 2], [2, 6], [5, 1],
        )
        merged = merge_lane_results(schedule, blocks, [lane0, lane1])
        assert merged.num_blocks == 5
        assert merged.outputs == [[10], [11], [12], [13], [14]]
        assert merged.completion_cycles == [26, 24, 40, 30, 45]
        assert [
            (s.nops_issued, s.exec_stall_cycles, s.load_stall_cycles, s.backpressure_stall_cycles)
            for s in merged.fu_stats
        ] == [(3, 5, 7, 9), (13, 13, 13, 13)]
        assert merged.fifo_high_water == [3, 4, 2]
        assert merged.rf_high_water == [3, 6]
        assert merged.rf_per_block_high_water == [5, 7]
        assert merged.total_cycles == 50
        assert merged.latency_cycles == 27  # block 0's, not the earliest
        # Completions sorted: 24 26 30 40 45; deltas 2 4 10 5; second half 10 5.
        assert merged.measured_ii == 7.5

    @pytest.mark.parametrize(
        "completions, expected",
        [([], None), ([7], None), ([3, 7], 4.0), ([0, 1, 3, 6], 2.5), ([0, 1, 3, 6, 10], 3.5)],
    )
    def test_steady_state_ii_is_the_mean_of_the_later_deltas(self, completions, expected):
        assert _steady_state_ii(completions) == expected

    @given(st.lists(st.integers(0, 2 ** 40), max_size=64).map(sorted))
    def test_steady_state_ii_equals_the_delta_formula(self, completions):
        """The oracle is the formula as first written: the mean of the
        second half of the consecutive deltas."""
        if len(completions) < 2:
            expected = None
        else:
            deltas = [b - a for a, b in zip(completions, completions[1:])]
            steady = deltas[len(deltas) // 2 :]
            expected = sum(steady) / len(steady)
        assert _steady_state_ii(completions) == expected


class TestInputStream:
    """``check_input_blocks``, where every engine's run starts, and what
    the engines do with the caller's stream."""

    @pytest.fixture()
    def schedule(self, gradient):
        return schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))

    def test_list_blocks_are_passed_through(self, schedule):
        blocks = random_input_blocks(schedule.dfg, 7, seed=2)
        checked = check_input_blocks(schedule, blocks)
        assert checked == blocks
        assert all(mine is theirs for mine, theirs in zip(checked, blocks))

    def test_other_blocks_are_copied_and_the_first_bad_one_is_named(self, schedule):
        blocks = [tuple(block) for block in random_input_blocks(schedule.dfg, 4, seed=2)]
        checked = check_input_blocks(schedule, blocks)
        assert checked == [list(block) for block in blocks]
        assert all(type(block) is list for block in checked)
        ragged = [list(blocks[0]), blocks[1], (1, 2, 3), [1, 2]]
        with pytest.raises(
            SimulationError, match="input block 2 has 3 values, kernel 'gradient' expects 5"
        ):
            check_input_blocks(schedule, ragged)
        with pytest.raises(SimulationError, match="input block 0 has 6 values"):
            check_input_blocks(schedule, iter([range(6), [1, 2]]))
        with pytest.raises(SimulationError, match="at least one input block"):
            check_input_blocks(schedule, ())

    @pytest.mark.parametrize("loaded", [True, False], ids=["numpy-loaded", "numpy-not-loaded"])
    @pytest.mark.parametrize("variant", [V1, V2], ids=lambda v: v.name)
    @pytest.mark.parametrize("engine", ["cycle", "fast", "batched"])
    def test_no_engine_mutates_the_callers_stream(self, qspline, engine, variant, loaded, monkeypatch):
        monkeypatch.setattr(reference, "numpy_loaded", lambda: loaded)
        schedule = schedule_kernel(qspline, LinearOverlay.for_kernel(variant, qspline))
        stream = random_input_blocks(qspline, 9, seed=6, low=-(2 ** 31), high=2 ** 31 - 1)
        blocks = list(stream)
        snapshot = copy.deepcopy(stream)
        result = simulate_schedule(schedule, stream, engine=engine)
        assert result.matches_reference
        assert stream == snapshot
        assert all(mine is theirs for mine, theirs in zip(stream, blocks))
        assert all(row is not block for row in result.outputs for block in stream)

    @pytest.mark.parametrize("loaded", [True, False], ids=["numpy-loaded", "numpy-not-loaded"])
    @pytest.mark.parametrize("kind", ["iterator", "tuple-generator"])
    @pytest.mark.parametrize("engine", ["cycle", "fast", "batched"])
    def test_a_one_shot_stream_is_run_and_checked_on_the_same_blocks(
        self, schedule, engine, kind, loaded, monkeypatch
    ):
        monkeypatch.setattr(reference, "numpy_loaded", lambda: loaded)
        blocks = random_input_blocks(schedule.dfg, 5, seed=4)
        stream = iter(blocks) if kind == "iterator" else (tuple(block) for block in blocks)
        result = simulate_schedule(schedule, stream, engine=engine)
        assert result.num_blocks == 5
        assert result.reference_outputs == reference.reference_outputs(schedule.dfg, blocks)
        assert result.matches_reference
        assert result.outputs == simulate_schedule(schedule, blocks, engine="cycle").outputs
