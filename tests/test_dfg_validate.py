"""Unit tests for repro.dfg.validate."""

import pytest

from repro.dfg.builder import DFGBuilder
from repro.dfg.graph import DFG
from repro.dfg.node import DFGNode
from repro.dfg.opcodes import OpCode
from repro.dfg.validate import collect_validation_errors, validate_dfg
from repro.errors import DFGValidationError


class TestValidDFGs:
    def test_benchmarks_are_valid(self, benchmarks):
        for name, dfg in benchmarks.items():
            assert collect_validation_errors(dfg) == [], name

    def test_diamond_is_valid(self, diamond_dfg):
        validate_dfg(diamond_dfg)  # does not raise


class TestInvalidDFGs:
    def test_missing_output_detected(self):
        b = DFGBuilder("k")
        x = b.input("x")
        b.add(x, x)
        errors = collect_validation_errors(b.dfg)
        assert any("output" in e for e in errors)

    def test_missing_input_detected(self):
        dfg = DFG("k")
        c = dfg.new_node(OpCode.CONST, value=1)
        dfg.new_node(OpCode.OUTPUT, operands=(c.node_id,))
        errors = collect_validation_errors(dfg)
        assert any("input" in e for e in errors)

    def test_dead_operation_detected(self):
        b = DFGBuilder("k")
        x = b.input("x")
        live = b.add(x, x)
        b.mul(x, x)  # dead
        b.output(live)
        errors = collect_validation_errors(b.dfg)
        assert any("does not reach any output" in e for e in errors)

    def test_dead_operation_allowed_when_liveness_disabled(self):
        b = DFGBuilder("k")
        x = b.input("x")
        live = b.add(x, x)
        b.mul(x, x)
        b.output(live)
        assert collect_validation_errors(b.dfg, require_live=False) == []

    def test_cycle_detected_without_networkx(self):
        b = DFGBuilder("k")
        x = b.input("x")
        first = b.add(x, x)
        second = b.mul(first, x)
        b.output(second)
        dfg = b.dfg
        # add_node cannot close a cycle, so splice one into the indices.
        dfg._nodes[first] = dfg.node(first).with_operands((x, second))
        dfg._consumers[second].append((first, 1))
        dfg._derived = None
        errors = collect_validation_errors(dfg)
        assert errors == ["DFG 'k' contains a cycle"]

    def test_unused_input_detected(self):
        b = DFGBuilder("k")
        x = b.input("x")
        b.input("unused")
        b.output(b.add(x, x))
        errors = collect_validation_errors(b.dfg)
        assert any("unused" in e for e in errors)

    def test_control_opcode_rejected_in_kernel(self):
        dfg = DFG("k")
        x = dfg.new_node(OpCode.INPUT)
        bad = dfg.new_node(OpCode.PASS, operands=(x.node_id,))
        dfg.new_node(OpCode.OUTPUT, operands=(bad.node_id,))
        errors = collect_validation_errors(dfg)
        assert any("FU-level opcode" in e for e in errors)

    def test_output_with_consumer_detected(self):
        dfg = DFG("k")
        x = dfg.new_node(OpCode.INPUT)
        out = dfg.new_node(OpCode.OUTPUT, operands=(x.node_id,))
        dfg.new_node(OpCode.OUTPUT, operands=(out.node_id,))
        errors = collect_validation_errors(dfg)
        assert any("consumes OUTPUT" in e or "has consumers" in e for e in errors)

    def test_validate_raises_with_kernel_name(self):
        b = DFGBuilder("broken_kernel")
        b.input("x")
        with pytest.raises(DFGValidationError, match="broken_kernel"):
            validate_dfg(b.dfg)
