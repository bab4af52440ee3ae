"""Tests for the ALU behavioural model."""

import pytest

from repro.dfg.opcodes import OpCode
from repro.errors import SimulationError
from repro.sim.alu import INT32_MAX, INT32_MIN, alu_execute


class TestALUExecute:
    def test_basic_arithmetic(self):
        assert alu_execute(OpCode.ADD, [10, -3]) == 7
        assert alu_execute(OpCode.SUB, [10, -3]) == 13
        assert alu_execute(OpCode.MUL, [10, -3]) == -30
        assert alu_execute(OpCode.SQR, [-7]) == 49

    def test_pass_is_identity(self):
        assert alu_execute(OpCode.PASS, [12345]) == 12345

    def test_pass_wraps_out_of_range_inputs(self):
        assert alu_execute(OpCode.PASS, [2 ** 31]) == INT32_MIN

    def test_results_wrap_like_the_dsp(self):
        assert alu_execute(OpCode.ADD, [INT32_MAX, 1]) == INT32_MIN
        assert alu_execute(OpCode.SUB, [INT32_MIN, 1]) == INT32_MAX

    def test_three_operand_ops(self):
        assert alu_execute(OpCode.MULADD, [3, 4, 5]) == 17
        assert alu_execute(OpCode.MULSUB, [3, 4, 5]) == 7

    def test_nop_rejected(self):
        with pytest.raises(SimulationError):
            alu_execute(OpCode.NOP, [])

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(SimulationError):
            alu_execute(OpCode.ADD, [1])
        with pytest.raises(SimulationError):
            alu_execute(OpCode.PASS, [1, 2])

