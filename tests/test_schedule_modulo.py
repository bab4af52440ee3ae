"""Tests for the idealised modulo-scheduling comparison baseline."""

import pytest

from repro.errors import ScheduleError
from repro.kernels import TABLE3_BENCHMARKS, get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.schedule import analytic_ii, schedule_kernel
from repro.schedule.modulo import (
    ModuloSchedule,
    minimum_ii,
    modulo_schedule,
    resource_minimum_ii,
)


class TestLowerBounds:
    def test_resource_minimum_ii(self, gradient):
        assert resource_minimum_ii(gradient, 4) == 3   # ceil(11 / 4)
        assert resource_minimum_ii(gradient, 11) == 1
        assert resource_minimum_ii(gradient, 1) == 11

    def test_minimum_ii_combines_bounds(self, qspline):
        assert minimum_ii(qspline, 8) == 4  # ceil(25 / 8)

    def test_invalid_fu_count_rejected(self, gradient):
        with pytest.raises(ScheduleError):
            resource_minimum_ii(gradient, 0)
        with pytest.raises(ScheduleError):
            modulo_schedule(gradient, 0)


class TestModuloScheduler:
    @pytest.mark.parametrize("name", list(TABLE3_BENCHMARKS))
    def test_schedules_are_legal(self, name):
        dfg = get_kernel(name)
        schedule = modulo_schedule(dfg, num_fus=8)
        assert isinstance(schedule, ModuloSchedule)
        assert schedule.validate(dfg) == []
        assert len(schedule.start_slots) == dfg.num_operations

    @pytest.mark.parametrize("num_fus", [2, 4, 8])
    def test_achieved_ii_is_at_least_the_lower_bound(self, poly7, num_fus):
        schedule = modulo_schedule(poly7, num_fus=num_fus)
        assert schedule.ii >= minimum_ii(poly7, num_fus)

    def test_acyclic_kernels_usually_achieve_the_bound(self, benchmarks):
        hits = 0
        for name, dfg in benchmarks.items():
            schedule = modulo_schedule(dfg, num_fus=8)
            hits += schedule.ii == minimum_ii(dfg, 8)
        assert hits >= len(benchmarks) - 1  # the greedy placement is near-optimal

    def test_one_iteration_spans_at_least_the_critical_path(self, qspline):
        from repro.dfg.analysis import dfg_depth

        schedule = modulo_schedule(qspline, num_fus=8)
        assert max(schedule.start_slots.values()) + 1 >= dfg_depth(qspline)

    def test_more_fus_never_hurt(self):
        poly6 = get_kernel("poly6")
        iis = [modulo_schedule(poly6, n).ii for n in (2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(iis, iis[1:]))

    def test_modulo_slot_occupancy_respects_fu_count(self):
        schedule = modulo_schedule(get_kernel("poly6"), num_fus=4)
        for slot in range(schedule.ii):
            assert len(schedule.operations_in_modulo_slot(slot)) <= 4


class TestComparisonWithOverlay:
    def test_idealised_ii_is_optimistic_versus_the_real_overlay(self, qspline):
        """The paper's point: the 1-cycle CGRA assumptions underestimate the
        II achievable on a deeply pipelined linear overlay."""
        overlay = LinearOverlay.for_kernel("v1", qspline)
        overlay_ii = analytic_ii(schedule_kernel(qspline, overlay))
        modulo_ii = modulo_schedule(qspline, overlay.depth).ii
        assert modulo_ii <= overlay_ii
        assert overlay_ii / modulo_ii >= 1.5
