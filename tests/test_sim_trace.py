"""Tests for trace recording and the Table II schedule-table renderer."""

import pytest

from repro.kernels import get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V1
from repro.schedule import analytic_ii, schedule_kernel
from repro.sim.overlay import simulate_schedule
from repro.sim.trace import per_block_issue_cycles, render_schedule_table


@pytest.fixture
def gradient_trace():
    gradient = get_kernel("gradient")
    schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
    result = simulate_schedule(schedule, num_blocks=8, record_trace=True)
    return schedule, result


class TestTraceEvents:
    def test_loads_per_stage_match_schedule(self, gradient_trace):
        schedule, result = gradient_trace
        stage0_loads = [
            e for e in result.trace.events_for_stage(0) if e.kind == "load"
        ]
        assert len(stage0_loads) == schedule.stage(0).num_loads * result.num_blocks

    def test_exec_events_per_stage_match_schedule(self, gradient_trace):
        schedule, result = gradient_trace
        for stage in schedule.stages:
            execs = [
                e for e in result.trace.events_for_stage(stage.stage) if e.kind == "exec"
            ]
            assert len(execs) == stage.num_instructions * result.num_blocks

    def test_steady_state_block_spacing_equals_ii(self, gradient_trace):
        schedule, result = gradient_trace
        cycles = per_block_issue_cycles(result.trace, stage=0)
        first_issue = {block: min(c) for block, c in cycles.items()}
        deltas = [
            first_issue[b + 1] - first_issue[b] for b in range(2, result.num_blocks - 1)
        ]
        assert all(delta == analytic_ii(schedule) for delta in deltas)

    def test_events_lie_inside_the_run(self, gradient_trace):
        _, result = gradient_trace
        assert max(e.cycle for e in result.trace.events) <= result.total_cycles


class TestScheduleTable:
    def test_table_has_one_row_per_cycle(self, gradient_trace):
        schedule, result = gradient_trace
        table = render_schedule_table(result.trace, schedule.depth, num_cycles=32)
        lines = table.splitlines()
        assert len(lines) == 32 + 2  # header + separator + 32 cycles

    def test_table_headers_name_every_fu(self, gradient_trace):
        schedule, result = gradient_trace
        table = render_schedule_table(result.trace, schedule.depth, num_cycles=8)
        header = table.splitlines()[0]
        for stage in range(schedule.depth):
            assert f"FU{stage}" in header

    def test_table_contains_load_and_compute_activity(self, gradient_trace):
        schedule, result = gradient_trace
        table = render_schedule_table(result.trace, schedule.depth, num_cycles=32)
        assert "Load" in table
        assert "SUB" in table
        assert "SQR" in table
        assert "ADD" in table

    def test_gradient_first_cycles_match_table2_structure(self, gradient_trace):
        """Paper Table II: the first five cycles of FU0 are pure loads, the
        first SUB issues at cycle 6 and loads of the next block overlap it."""
        schedule, result = gradient_trace
        stage0 = result.trace.events_for_stage(0)
        loads = sorted(e.cycle for e in stage0 if e.kind == "load")
        execs = sorted(e.cycle for e in stage0 if e.kind == "exec")
        assert loads[:5] == [0, 1, 2, 3, 4]   # cycles 1-5 in the paper's 1-based table
        assert execs[0] == 5                  # cycle 6 in the paper's numbering
        # Loads of block 1 overlap the remaining SUBs of block 0 (rotating RF).
        block1_loads = [e.cycle for e in stage0 if e.kind == "load" and e.block == 1]
        assert min(block1_loads) <= max(e.cycle for e in stage0 if e.kind == "exec" and e.block == 0)
