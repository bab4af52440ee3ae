"""Unit tests for the symbolic tracing frontend."""

import pytest

from repro.dfg.analysis import dfg_depth
from repro.dfg.opcodes import OpCode
from repro.errors import TraceError
from repro.frontend.expr import KernelTracer, trace_kernel
from repro.kernels.reference import evaluate_dfg


class TestBasicTracing:
    def test_single_add(self):
        dfg = trace_kernel(lambda a, b: a + b, name="add2")
        assert dfg.num_operations == 1
        assert evaluate_dfg(dfg, [4, 5]) == [9]

    def test_num_inputs_inferred_from_signature(self):
        dfg = trace_kernel(lambda a, b, c: a + b + c)
        assert dfg.num_inputs == 3

    def test_multiple_outputs(self):
        dfg = trace_kernel(lambda a, b: (a + b, a - b), name="sumdiff")
        assert dfg.num_outputs == 2
        assert evaluate_dfg(dfg, [10, 4]) == [14, 6]

    def test_every_operator_maps_to_an_opcode(self):
        def kitchen_sink(a, b):
            return (
                (a + b)
                - (a * b)
                + (a & b)
                + (a | b)
                + (a ^ b)
                + (~a)
                + (-b)
                + (a << 1)
                + (a >> 1)
            )

        dfg = trace_kernel(kitchen_sink, name="sink")
        opcodes = {n.opcode for n in dfg.operations()}
        assert {
            OpCode.ADD,
            OpCode.SUB,
            OpCode.MUL,
            OpCode.AND,
            OpCode.OR,
            OpCode.XOR,
            OpCode.NOT,
            OpCode.NEG,
            OpCode.SHL,
            OpCode.SHR,
        } <= opcodes

    def test_reverse_operators_with_int_on_the_left(self):
        dfg = trace_kernel(lambda x: 10 - x, name="rsub")
        assert evaluate_dfg(dfg, [3]) == [7]

    def test_power_expands_to_multiplications(self):
        tracer = KernelTracer("cube")  # unoptimized: x * x stays a MUL
        tracer.output(tracer.input("I0") ** 3, "O0")
        dfg = tracer.finish()
        assert all(n.opcode is OpCode.MUL for n in dfg.operations())
        assert evaluate_dfg(dfg, [4]) == [64]

    def test_named_methods(self):
        dfg = trace_kernel(lambda a, b: a.min(b) + a.max(b) + a.abs(), name="mm")
        assert evaluate_dfg(dfg, [-5, 3]) == [-5 + 3 + 5]

    def test_square_strength_reduced_by_optimizer(self):
        dfg = trace_kernel(lambda x: x * x, name="sq")
        assert [n.opcode for n in dfg.operations()] == [OpCode.SQR]

    def test_constants_are_cached(self):
        tracer = KernelTracer("k")
        c1 = tracer.constant(5)
        c2 = tracer.constant(5)
        assert c1.node_id == c2.node_id

    def test_optimizer_folds_duplicate_work(self):
        def kernel(a, b):
            x = a * b
            y = a * b
            return x + y

        dfg = trace_kernel(kernel, name="dup")
        assert dfg.num_operations == 2  # one MUL (CSE) + one ADD


class TestTracingGuards:
    def test_branching_on_symbolic_value_raises(self):
        def bad(a, b):
            if a:  # data-dependent control flow is unsupported
                return b
            return a

        with pytest.raises(TraceError):
            trace_kernel(bad)

    def test_float_operands_rejected(self):
        with pytest.raises(TraceError):
            trace_kernel(lambda x: x + 1.5)

    def test_returning_none_rejected(self):
        with pytest.raises(TraceError):
            trace_kernel(lambda x: None)

    def test_mixing_tracers_rejected(self):
        other = KernelTracer("other")
        stray = other.input("s")

        with pytest.raises(TraceError):
            trace_kernel(lambda x: x + stray)

    def test_pow_requires_positive_integer(self):
        with pytest.raises(TraceError):
            trace_kernel(lambda x: x ** 0)


class TestPaperKernelsViaTracer:
    def test_gradient_semantics(self):
        def gradient(i0, i1, i2, i3, i4):
            dx, dy = i0 - i2, i1 - i2
            dz, dw = i2 - i3, i2 - i4
            return (dx * dx + dy * dy) + (dz * dz + dw * dw)

        dfg = trace_kernel(gradient, name="gradient_traced")
        assert dfg.num_operations == 11
        assert dfg_depth(dfg) == 4
        assert evaluate_dfg(dfg, [1, 2, 3, 4, 5]) == [4 + 1 + 1 + 4]
