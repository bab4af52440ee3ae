"""Tests for register allocation on the rotating register file."""

import pytest

from repro.errors import RegisterAllocationError
from repro.kernels import get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V3
from repro.program.regalloc import allocate_registers
from repro.schedule import schedule_kernel
from repro.schedule.types import ScheduledOp, SlotKind, StageSchedule


class TestAllocation:
    def test_loads_get_consecutive_registers_in_arrival_order(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        allocation = allocate_registers(schedule.stage(0), V1, gradient)
        registers = [allocation.register_of(v) for v in schedule.stage(0).load_order]
        assert registers == list(range(len(registers)))

    def test_every_operand_has_a_register(self, benchmarks):
        for name, dfg in benchmarks.items():
            overlay = LinearOverlay.fixed(V3, 8)
            schedule = schedule_kernel(dfg, overlay)
            for stage in schedule.stages:
                allocation = allocate_registers(stage, V3, dfg)
                for slot in stage.slots:
                    for operand in slot.operands:
                        assert 0 <= allocation.register_of(operand) < V3.rf_depth

    def test_constants_pinned_at_top_of_register_file(self, benchmarks):
        chebyshev = benchmarks["chebyshev"]
        schedule = schedule_kernel(chebyshev, LinearOverlay.for_kernel(V1, chebyshev))
        for stage in schedule.stages:
            allocation = allocate_registers(stage, V1, chebyshev)
            for register in allocation.constant_registers.values():
                assert register >= V1.rf_depth - len(allocation.constant_registers)

    def test_write_back_values_get_registers(self, poly7):
        schedule = schedule_kernel(poly7, LinearOverlay.fixed(V3, 8))
        for stage in schedule.stages:
            allocation = allocate_registers(stage, V3, poly7)
            for slot in stage.slots:
                if slot.write_back:
                    assert allocation.register_of(slot.value_id) < V3.rf_depth

    def test_unknown_value_raises(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        allocation = allocate_registers(schedule.stage(0), V1, gradient)
        with pytest.raises(RegisterAllocationError):
            allocation.register_of(99999)

    def test_rotating_window_capacity_enforced(self, gradient):
        # A synthetic stage loading 20 values exceeds the 16-entry window of V1.
        stage = StageSchedule(
            stage=0,
            load_order=list(range(100, 120)),
            slots=[
                ScheduledOp(kind=SlotKind.PASS, value_id=v, operands=(v,))
                for v in range(100, 120)
            ],
        )
        with pytest.raises(RegisterAllocationError):
            allocate_registers(stage, V1, gradient)

    def test_baseline_frame_uses_full_register_file(self, gradient):
        stage = StageSchedule(
            stage=0,
            load_order=list(range(100, 120)),
            slots=[
                ScheduledOp(kind=SlotKind.PASS, value_id=v, operands=(v,))
                for v in range(100, 120)
            ],
        )
        allocation = allocate_registers(stage, BASELINE, gradient)
        assert len(allocation.value_registers) == 20

    def test_benchmark_kernels_fit_every_usable_variant(self, benchmarks):
        from repro.dfg.analysis import dfg_depth
        from repro.overlay.fu import FU_VARIANTS

        for name, dfg in benchmarks.items():
            for variant in FU_VARIANTS.values():
                if variant.write_back:
                    overlay = LinearOverlay.fixed(variant, 8)
                elif dfg_depth(dfg) > 0:
                    overlay = LinearOverlay.for_kernel(variant, dfg)
                schedule = schedule_kernel(dfg, overlay)
                for stage in schedule.stages:
                    allocate_registers(stage, variant, dfg)  # must not raise
