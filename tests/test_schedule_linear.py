"""Tests for ASAP (linear) scheduling onto critical-path-depth overlays."""

import pytest

from repro.dfg.analysis import dfg_depth
from repro.errors import InfeasibleScheduleError
from repro.kernels import PAPER_TABLE3_II, TABLE3_BENCHMARKS, get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.schedule.ii import analytic_ii
from repro.schedule.linear import schedule_linear
from repro.schedule.types import SlotKind


class TestStructure:
    def test_one_stage_per_dfg_level(self, gradient):
        overlay = LinearOverlay.for_kernel("v1", gradient)
        schedule = schedule_linear(gradient, overlay)
        assert len(schedule.stages) == dfg_depth(gradient)
        assert schedule.scheduler == "asap"

    def test_every_operation_is_scheduled_exactly_once(self, qspline):
        overlay = LinearOverlay.for_kernel("v1", qspline)
        schedule = schedule_linear(qspline, overlay)
        scheduled = [
            slot.value_id
            for stage in schedule.stages
            for slot in stage.slots
            if slot.kind is SlotKind.COMPUTE
        ]
        assert sorted(scheduled) == sorted(n.node_id for n in qspline.operations())

    def test_no_nops_in_asap_schedules(self, benchmarks):
        for name, dfg in benchmarks.items():
            overlay = LinearOverlay.for_kernel("v1", dfg)
            schedule = schedule_linear(dfg, overlay)
            assert schedule.total_nops == 0, name

    def test_no_write_back_in_asap_schedules(self, qspline):
        overlay = LinearOverlay.for_kernel("v1", qspline)
        schedule = schedule_linear(qspline, overlay)
        for stage in schedule.stages:
            assert not any(slot.write_back for slot in stage.slots)

    def test_load_order_matches_upstream_emission_order(self, qspline):
        overlay = LinearOverlay.for_kernel("v1", qspline)
        schedule = schedule_linear(qspline, overlay)
        for previous, current in zip(schedule.stages, schedule.stages[1:]):
            assert current.load_order == previous.emission_order

    def test_stage_zero_loads_primary_inputs_in_stream_order(self, gradient):
        overlay = LinearOverlay.for_kernel("v1", gradient)
        schedule = schedule_linear(gradient, overlay)
        assert schedule.stage(0).load_order == [n.node_id for n in gradient.inputs()]

    def test_final_stage_emits_exactly_the_outputs(self, benchmarks):
        for name, dfg in benchmarks.items():
            overlay = LinearOverlay.for_kernel("v1", dfg)
            schedule = schedule_linear(dfg, overlay)
            emitted = set(schedule.stages[-1].emission_order)
            expected = {o.operands[0] for o in dfg.outputs()}
            assert emitted == expected, name

    def test_too_shallow_overlay_rejected(self, poly7):
        from repro.overlay.fu import V1

        with pytest.raises(InfeasibleScheduleError):
            schedule_linear(poly7, LinearOverlay(variant=V1, depth=8))

    def test_deeper_overlay_adds_pass_only_stages(self, gradient):
        from repro.overlay.fu import V3

        overlay = LinearOverlay(variant=V3, depth=6, fixed_depth=True)
        schedule = schedule_linear(gradient, overlay)
        for stage in schedule.stages[4:]:
            kinds = [slot.kind for slot in stage.slots]
            assert SlotKind.COMPUTE not in kinds
            assert SlotKind.PASS in kinds

    def test_constants_are_tracked_per_stage(self, benchmarks):
        chebyshev = benchmarks["chebyshev"]
        overlay = LinearOverlay.for_kernel("v1", chebyshev)
        schedule = schedule_linear(chebyshev, overlay)
        all_constants = {c for k in range(overlay.depth) for c in schedule.constants_used(k)}
        assert all_constants == {c.node_id for c in chebyshev.constants()}


class TestTable3II:
    @pytest.mark.parametrize("name", list(TABLE3_BENCHMARKS))
    @pytest.mark.parametrize("variant", ["baseline", "v1", "v2"])
    def test_asap_ii_matches_paper_table3(self, name, variant):
        dfg = get_kernel(name)
        overlay = LinearOverlay.for_kernel(variant, dfg)
        schedule = schedule_linear(dfg, overlay)
        assert analytic_ii(schedule) == pytest.approx(PAPER_TABLE3_II[name][variant])

    def test_gradient_ii_matches_section_iv(self, gradient):
        for variant, expected in (("baseline", 11), ("v1", 6), ("v2", 3)):
            overlay = LinearOverlay.for_kernel(variant, gradient)
            assert analytic_ii(schedule_linear(gradient, overlay)) == pytest.approx(expected)
