"""Tests for the ASAP/ALAP levelization helpers."""

import pytest

from repro.dfg.analysis import asap_levels, dfg_depth
from repro.errors import InfeasibleScheduleError
from repro.schedule.asap import asap_assignment, schedule_depth
from repro.schedule.alap import alap_assignment


class TestASAP:
    def test_assignment_is_level_minus_one(self, gradient):
        levels = asap_levels(gradient)
        assignment = asap_assignment(gradient)
        for node in gradient.operations():
            assert assignment[node.node_id] == levels[node.node_id] - 1

    def test_assignment_respects_precedence(self, qspline):
        assignment = asap_assignment(qspline)
        for node in qspline.operations():
            for operand in node.operands:
                if operand in assignment:
                    assert assignment[operand] < assignment[node.node_id]

    def test_depth_check_raises_when_overlay_too_shallow(self, poly7):
        with pytest.raises(InfeasibleScheduleError):
            asap_assignment(poly7, num_stages=8)

    def test_depth_check_passes_when_overlay_deep_enough(self, poly7):
        assignment = asap_assignment(poly7, num_stages=13)
        assert max(assignment.values()) == 12

    def test_schedule_depth_equals_dfg_depth(self, benchmarks):
        for name, dfg in benchmarks.items():
            assert schedule_depth(dfg) == dfg_depth(dfg), name


class TestALAP:
    def test_alap_assignment_never_earlier_than_asap(self, qspline):
        asap = asap_assignment(qspline)
        alap = alap_assignment(qspline)
        for node_id in asap:
            assert alap[node_id] >= asap[node_id]

    def test_alap_respects_precedence(self, qspline):
        alap = alap_assignment(qspline)
        for node in qspline.operations():
            for operand in node.operands:
                if operand in alap:
                    assert alap[operand] < alap[node.node_id]
