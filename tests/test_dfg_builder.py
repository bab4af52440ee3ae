"""Unit tests for repro.dfg.builder."""

import pytest

from repro.dfg.builder import DFGBuilder
from repro.dfg.opcodes import OpCode
from repro.errors import DFGValidationError


class TestBuilderBasics:
    def test_inputs_get_default_port_names(self):
        b = DFGBuilder("k")
        i0 = b.input()
        i1 = b.input()
        b.output(b.add(i0, i1))
        dfg = b.build()
        assert [n.name.split("_N")[0] for n in dfg.inputs()] == ["I0", "I1"]

    def test_op_rejects_non_compute_opcodes(self):
        b = DFGBuilder("k")
        x = b.input("x")
        with pytest.raises(DFGValidationError):
            b.op(OpCode.LOAD, x)

    def test_every_helper_builds_the_right_opcode(self):
        b = DFGBuilder("k")
        x, y = b.input("x"), b.input("y")
        helpers = {
            OpCode.ADD: b.add(x, y),
            OpCode.SUB: b.sub(x, y),
            OpCode.MUL: b.mul(x, y),
            OpCode.SQR: b.sqr(x),
            OpCode.MULADD: b.muladd(x, y, x),
            OpCode.MULSUB: b.mulsub(x, y, x),
            OpCode.NEG: b.neg(x),
            OpCode.AND: b.and_(x, y),
            OpCode.OR: b.or_(x, y),
            OpCode.XOR: b.xor(x, y),
            OpCode.NOT: b.not_(x),
            OpCode.SHL: b.shl(x, y),
            OpCode.SHR: b.shr(x, y),
            OpCode.MIN: b.min(x, y),
            OpCode.MAX: b.max(x, y),
            OpCode.ABS: b.abs(x),
        }
        for opcode, node_id in helpers.items():
            assert b.dfg.node(node_id).opcode is opcode

    def test_const_nodes_carry_value(self):
        b = DFGBuilder("k")
        c = b.const(42)
        assert b.dfg.node(c).value == 42

    def test_build_validates_by_default(self):
        b = DFGBuilder("k")
        b.input("x")
        with pytest.raises(DFGValidationError):
            b.build()  # no outputs

    def test_build_without_validation(self):
        b = DFGBuilder("k")
        b.input("x")
        dfg = b.build(validate=False)
        assert dfg.num_outputs == 0
