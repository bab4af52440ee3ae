"""Tests for the analytic II models (paper Equations 1 and 2)."""

import pytest

from repro.kernels import get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2
from repro.schedule.ii import (
    analytic_ii,
    ii_equation_baseline,
    ii_equation_overlapped,
    minimum_ii_bound,
    per_stage_ii,
    stage_ii,
)
from repro.schedule.linear import schedule_linear
from repro.schedule.types import ScheduledOp, SlotKind, StageSchedule


def _stage(loads, ops):
    return StageSchedule(
        stage=0,
        load_order=list(range(loads)),
        slots=[
            ScheduledOp(kind=SlotKind.PASS, value_id=i, operands=(i,))
            for i in range(ops)
        ],
    )


class TestEquations:
    def test_equation_1_baseline(self):
        # The gradient example: 5 loads + 4 ops + 2 = 11 (Section III).
        assert ii_equation_baseline(5, 4) == 11

    def test_equation_2_overlapped(self):
        # max(#load + 1, #op + 2) = max(6, 6) = 6 for the gradient example.
        assert ii_equation_overlapped(5, 4) == 6

    def test_equation_2_load_bound(self):
        assert ii_equation_overlapped(10, 3) == 11

    def test_equation_2_exec_bound(self):
        assert ii_equation_overlapped(2, 9) == 11

    def test_stage_ii_dispatches_on_variant(self):
        stage = _stage(loads=5, ops=4)
        assert stage_ii(stage, BASELINE) == 11
        assert stage_ii(stage, V1) == 6
        assert stage_ii(stage, V2) == 6  # per-lane value; halving happens overlay-wide

    def test_analytic_ii_takes_the_maximum_stage(self, gradient):
        schedule = schedule_linear(gradient, LinearOverlay.for_kernel(V1, gradient))
        contributions = per_stage_ii(schedule)
        assert analytic_ii(schedule) == max(contributions)

    def test_v2_halves_the_overlapped_ii(self, qspline):
        v1 = analytic_ii(schedule_linear(qspline, LinearOverlay.for_kernel(V1, qspline)))
        v2 = analytic_ii(schedule_linear(qspline, LinearOverlay.for_kernel(V2, qspline)))
        assert v2 == pytest.approx(v1 / 2)

    def test_fractional_ii_allowed_for_v2(self):
        qspline = get_kernel("qspline")
        v2 = analytic_ii(schedule_linear(qspline, LinearOverlay.for_kernel(V2, qspline)))
        assert v2 == pytest.approx(5.5)


class TestHelpers:
    def test_minimum_ii_bound_is_a_true_lower_bound(self, benchmarks):
        for name, dfg in benchmarks.items():
            overlay = LinearOverlay.for_kernel(V1, dfg)
            schedule = schedule_linear(dfg, overlay)
            bound = minimum_ii_bound(dfg.num_operations, overlay.depth, V1)
            assert analytic_ii(schedule) >= bound, name

    def test_v1_always_at_least_as_good_as_baseline(self, benchmarks):
        for name, dfg in benchmarks.items():
            baseline = analytic_ii(
                schedule_linear(dfg, LinearOverlay.for_kernel(BASELINE, dfg))
            )
            v1 = analytic_ii(schedule_linear(dfg, LinearOverlay.for_kernel(V1, dfg)))
            assert v1 <= baseline, name
