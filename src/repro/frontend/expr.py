"""Symbolic tracing frontend.

A compute kernel is written as an ordinary Python function over symbolic
:class:`Value` operands; running the function records every arithmetic
operation into a :class:`~repro.dfg.graph.DFG`.  This mirrors what an HLS
frontend does for straight-line C code, and is the most convenient way to
define the benchmark kernels in pure Python.

Example
-------
>>> from repro.frontend.expr import trace_kernel
>>> def gradient(i0, i1, i2, i3, i4):
...     dx = i0 - i2
...     dy = i1 - i2
...     dz = i2 - i3
...     dw = i2 - i4
...     return dx * dx + dy * dy + dz * dz + dw * dw
>>> dfg = trace_kernel(gradient, num_inputs=5, name="gradient")
>>> dfg.num_operations
11
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, List, Optional, Sequence, Union

from ..dfg.builder import DFGBuilder
from ..dfg.graph import DFG
from ..dfg.opcodes import OpCode
from ..dfg.transforms import optimize
from ..errors import TraceError

Operand = Union["Value", int]


class Value:
    """A symbolic SSA value flowing through a traced kernel.

    Arithmetic operators build DFG nodes; mixing with Python ints creates
    constant nodes on demand.  Comparison, branching and floating point are
    intentionally unsupported: the overlay targets straight-line integer
    kernels (the paper's benchmark set), and trying to branch on a symbolic
    value raises :class:`TraceError` with a clear message.
    """

    __slots__ = ("tracer", "node_id")

    def __init__(self, tracer: "KernelTracer", node_id: int):
        self.tracer = tracer
        self.node_id = node_id

    # -- helpers -----------------------------------------------------------
    def _wrap(self, other: Operand) -> "Value":
        return self.tracer.as_value(other)

    def _binary(self, opcode: OpCode, other: Operand, reverse: bool = False) -> "Value":
        rhs = self._wrap(other)
        lhs: Value = self
        if reverse:
            lhs, rhs = rhs, lhs
        node_id = self.tracer.builder.op(opcode, lhs.node_id, rhs.node_id)
        return Value(self.tracer, node_id)

    def _unary(self, opcode: OpCode) -> "Value":
        node_id = self.tracer.builder.op(opcode, self.node_id)
        return Value(self.tracer, node_id)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: Operand) -> "Value":
        return self._binary(OpCode.ADD, other)

    __radd__ = __add__

    def __sub__(self, other: Operand) -> "Value":
        return self._binary(OpCode.SUB, other)

    def __rsub__(self, other: Operand) -> "Value":
        return self._binary(OpCode.SUB, other, reverse=True)

    def __mul__(self, other: Operand) -> "Value":
        return self._binary(OpCode.MUL, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Value":
        return self._unary(OpCode.NEG)

    def __and__(self, other: Operand) -> "Value":
        return self._binary(OpCode.AND, other)

    __rand__ = __and__

    def __or__(self, other: Operand) -> "Value":
        return self._binary(OpCode.OR, other)

    __ror__ = __or__

    def __xor__(self, other: Operand) -> "Value":
        return self._binary(OpCode.XOR, other)

    __rxor__ = __xor__

    def __invert__(self) -> "Value":
        return self._unary(OpCode.NOT)

    def __lshift__(self, other: Operand) -> "Value":
        return self._binary(OpCode.SHL, other)

    def __rshift__(self, other: Operand) -> "Value":
        return self._binary(OpCode.SHR, other)

    def __pow__(self, exponent: int) -> "Value":
        if not isinstance(exponent, int) or exponent < 1:
            raise TraceError("only positive integer powers are supported")
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    # -- convenience named ops ------------------------------------------------
    def sqr(self) -> "Value":
        """Square this value with the FU's single-operand SQR opcode."""
        return self._unary(OpCode.SQR)

    def abs(self) -> "Value":
        """Absolute value (the FU's ABS opcode)."""
        return self._unary(OpCode.ABS)

    def min(self, other: Operand) -> "Value":
        """Minimum of this value and ``other`` (the FU's MIN opcode)."""
        return self._binary(OpCode.MIN, other)

    def max(self, other: Operand) -> "Value":
        """Maximum of this value and ``other`` (the FU's MAX opcode)."""
        return self._binary(OpCode.MAX, other)

    # -- guard rails ------------------------------------------------------------
    def __bool__(self) -> bool:
        raise TraceError(
            "cannot branch on a symbolic value: the linear overlay targets "
            "straight-line kernels (no data-dependent control flow)"
        )

    def __float__(self) -> float:
        raise TraceError("symbolic values cannot be converted to float during tracing")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Value(N{self.node_id})"


class KernelTracer:
    """Owns the builder and constant cache while a kernel is being traced."""

    def __init__(self, name: str = "kernel"):
        self.builder = DFGBuilder(name)
        self._constants: dict = {}

    def input(self, name: str = "") -> Value:
        """Create a primary-input value for the kernel being traced."""
        return Value(self, self.builder.input(name))

    def constant(self, value: int) -> Value:
        """Intern an integer constant (one DFG node per distinct value)."""
        value = int(value)
        if value not in self._constants:
            self._constants[value] = self.builder.const(value)
        return Value(self, self._constants[value])

    def as_value(self, operand: Operand) -> Value:
        """Coerce an operand (symbolic value or plain int) into a `Value`."""
        if isinstance(operand, Value):
            if operand.tracer is not self:
                raise TraceError("cannot mix values from different tracers")
            return operand
        if isinstance(operand, bool) or not isinstance(operand, int):
            raise TraceError(
                f"unsupported operand type {type(operand).__name__}; "
                "kernels operate on integers and symbolic values only"
            )
        return self.constant(operand)

    def output(self, value: Operand, name: str = "") -> None:
        """Mark a traced value as a kernel output."""
        self.builder.output(self.as_value(value).node_id, name)

    def finish(self, validate: bool = True) -> DFG:
        """Finish tracing and return the (optionally validated) DFG."""
        return self.builder.build(validate=validate)


def trace_kernel(
    func: Callable[..., Union[Operand, Sequence[Operand]]],
    num_inputs: Optional[int] = None,
    name: Optional[str] = None,
) -> DFG:
    """Trace a Python kernel function into a DFG.

    Parameters
    ----------
    func:
        A function taking ``num_inputs`` symbolic values and returning either
        a single value or a sequence of values (the kernel outputs).
    num_inputs:
        Number of primary inputs.  Defaults to the function's positional
        parameter count.
    name:
        Kernel name (defaults to ``func.__name__``).

    The inputs are named ``I0, I1, ...`` in the paper's style, and the traced
    graph goes through the standard pass pipeline (constant folding, CSE,
    SQR strength reduction, DCE), so traced kernels match what an HLS
    frontend would emit.
    """
    if num_inputs is None:
        signature = inspect.signature(func)
        num_inputs = len(
            [
                p
                for p in signature.parameters.values()
                if p.kind
                in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            ]
        )
    tracer = KernelTracer(name or func.__name__)
    inputs = [tracer.input(f"I{i}") for i in range(num_inputs)]
    result = func(*inputs)
    outputs: List[Operand]
    if isinstance(result, (tuple, list)):
        outputs = list(result)
    elif result is None:
        raise TraceError("kernel returned None; it must return its output value(s)")
    else:
        outputs = [result]
    for index, value in enumerate(outputs):
        tracer.output(value, f"O{index}")
    return optimize(tracer.finish(validate=False))
