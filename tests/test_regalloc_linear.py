"""Linear-scan register allocator: equivalence with the reference allocator.

The compile-path overhaul replaced the arrival-order register allocator with
a linear scan over live intervals (:mod:`repro.program.regalloc`).  Because
register addresses in the rotating window are configuration-time constants,
the two algorithms must agree *exactly* — this suite asserts identical
``value_registers`` and ``constant_registers`` on every stage of every
library kernel across every FU variant, plus the properties of the interval
computation itself.
"""

import pytest

from repro.dfg.analysis import dfg_depth
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import FU_VARIANTS, V1, V3
from repro.program.regalloc import (
    allocate_registers,
    allocate_registers_reference,
    compute_live_intervals,
)
from repro.schedule import schedule_kernel


def _overlay_for(variant, dfg):
    if variant.write_back:
        return LinearOverlay.fixed(variant, 8)
    return LinearOverlay.for_kernel(variant, dfg)


def _schedules(benchmarks):
    """Every (kernel, variant, schedule) triple of the library."""
    for name, dfg in benchmarks.items():
        for variant in FU_VARIANTS.values():
            if not variant.write_back and dfg_depth(dfg) == 0:
                continue
            yield name, variant, dfg, schedule_kernel(dfg, _overlay_for(variant, dfg))


class TestEquivalence:
    def test_identical_assignments_across_the_kernel_library(self, benchmarks):
        """The acceptance criterion: new == old on every library kernel."""
        stages_checked = 0
        for name, variant, dfg, schedule in _schedules(benchmarks):
            for stage in schedule.stages:
                new = allocate_registers(stage, variant, dfg)
                old = allocate_registers_reference(stage, variant, dfg)
                assert new.value_registers == old.value_registers, (
                    f"{name} on {variant.name} stage {stage.stage}: "
                    f"rotating-window assignment diverged"
                )
                assert new.constant_registers == old.constant_registers, (
                    f"{name} on {variant.name} stage {stage.stage}: "
                    f"constant assignment diverged"
                )
                stages_checked += 1
        # All nine kernels on all six variants: make sure the sweep was real.
        assert stages_checked > 100

    def test_identical_assignments_on_fixed_depth_sweep(self, benchmarks):
        """Write-back overlays at several depths (different clusterings).

        Shallow overlays make some kernels overflow the rotating window;
        the two allocators must then fail identically, message and all.
        """
        from repro.errors import RegisterAllocationError

        for depth in (4, 8, 12):
            for name, dfg in benchmarks.items():
                schedule = schedule_kernel(dfg, LinearOverlay.fixed(V3, depth))
                for stage in schedule.stages:
                    try:
                        new = allocate_registers(stage, V3, dfg)
                    except RegisterAllocationError as new_error:
                        with pytest.raises(RegisterAllocationError) as old_error:
                            allocate_registers_reference(stage, V3, dfg)
                        assert str(new_error) == str(old_error.value)
                        continue
                    old = allocate_registers_reference(stage, V3, dfg)
                    assert new.value_registers == old.value_registers
                    assert new.constant_registers == old.constant_registers


class TestLiveIntervals:
    def test_loads_start_in_arrival_order(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        stage = schedule.stage(0)
        intervals = compute_live_intervals(stage)
        load_intervals = intervals[: len(stage.load_order)]
        assert [iv.value_id for iv in load_intervals] == stage.load_order
        assert [iv.start for iv in load_intervals] == list(range(len(stage.load_order)))

    def test_interval_ends_cover_last_use(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        for stage in schedule.stages:
            num_loads = len(stage.load_order)
            by_id = {iv.value_id: iv for iv in compute_live_intervals(stage)}
            for index, slot in enumerate(stage.slots):
                for operand in slot.operands:
                    if operand in by_id:
                        assert by_id[operand].end >= num_loads + index

    def test_intervals_are_sorted_by_start(self, benchmarks):
        for name, variant, dfg, schedule in _schedules(benchmarks):
            for stage in schedule.stages:
                starts = [iv.start for iv in compute_live_intervals(stage)]
                assert starts == sorted(starts)

    def test_write_back_intervals_flagged(self, poly7):
        schedule = schedule_kernel(poly7, LinearOverlay.fixed(V3, 8))
        flagged = set()
        for stage in schedule.stages:
            for iv in compute_live_intervals(stage):
                if iv.writes_back:
                    flagged.add(iv.value_id)
            for slot in stage.slots:
                if slot.write_back and slot.value_id not in stage.load_order:
                    assert slot.value_id in flagged

    def test_interval_length_positive(self, benchmarks):
        for name, variant, dfg, schedule in _schedules(benchmarks):
            for stage in schedule.stages:
                for iv in compute_live_intervals(stage):
                    assert iv.end >= iv.start
