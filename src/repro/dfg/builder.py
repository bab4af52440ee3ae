"""Programmatic DFG construction.

:class:`DFGBuilder` is the low-level API used by the frontends and the
benchmark kernel library.  It provides one method per operation and finishes
with :meth:`build`, which validates the graph.

Example
-------
>>> from repro.dfg.builder import DFGBuilder
>>> b = DFGBuilder("gradient")
>>> i0, i1 = b.input("I0"), b.input("I1")
>>> d = b.sub(i0, i1)
>>> b.output(b.mul(d, d), "O0")
>>> dfg = b.build()
>>> dfg.num_operations
2
"""

from __future__ import annotations


from ..errors import DFGValidationError
from .graph import DFG
from .opcodes import OpCode
from .validate import validate_dfg


class DFGBuilder:
    """Incrementally builds a :class:`DFG`.

    All value-producing methods return the integer node id of the created
    node; those ids are then passed as operands to later calls.
    """

    def __init__(self, name: str = "kernel"):
        self._dfg = DFG(name=name)

    # ------------------------------------------------------------------
    # boundary nodes
    # ------------------------------------------------------------------
    def input(self, name: str = "") -> int:
        """Add a primary input and return its node id."""
        if not name:
            name = f"I{self._dfg.num_inputs}"
        return self._dfg.new_node(OpCode.INPUT, name=f"{name}_N{self._dfg._next_id}").node_id

    def const(self, value: int) -> int:
        """Add a compile-time constant and return its node id."""
        return self._dfg.new_node(OpCode.CONST, value=int(value)).node_id

    def output(self, value: int, name: str = "") -> int:
        """Mark ``value`` as a primary output."""
        if not name:
            name = f"O{self._dfg.num_outputs}"
        return self._dfg.new_node(
            OpCode.OUTPUT, operands=(value,), name=f"{name}_N{self._dfg._next_id}"
        ).node_id

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def op(self, opcode: OpCode, *operands: int, name: str = "") -> int:
        """Add an arbitrary compute node."""
        if not opcode.is_compute:
            raise DFGValidationError(
                f"DFGBuilder.op expects a compute opcode, got {opcode.name}"
            )
        return self._dfg.new_node(opcode, operands=tuple(operands), name=name).node_id

    def add(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.ADD, a, b, name=name)

    def sub(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.SUB, a, b, name=name)

    def mul(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.MUL, a, b, name=name)

    def sqr(self, a: int, name: str = "") -> int:
        return self.op(OpCode.SQR, a, name=name)

    def muladd(self, a: int, b: int, c: int, name: str = "") -> int:
        return self.op(OpCode.MULADD, a, b, c, name=name)

    def mulsub(self, a: int, b: int, c: int, name: str = "") -> int:
        return self.op(OpCode.MULSUB, a, b, c, name=name)

    def neg(self, a: int, name: str = "") -> int:
        return self.op(OpCode.NEG, a, name=name)

    def and_(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.AND, a, b, name=name)

    def or_(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.OR, a, b, name=name)

    def xor(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.XOR, a, b, name=name)

    def not_(self, a: int, name: str = "") -> int:
        return self.op(OpCode.NOT, a, name=name)

    def shl(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.SHL, a, b, name=name)

    def shr(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.SHR, a, b, name=name)

    def min(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.MIN, a, b, name=name)

    def max(self, a: int, b: int, name: str = "") -> int:
        return self.op(OpCode.MAX, a, b, name=name)

    def abs(self, a: int, name: str = "") -> int:
        return self.op(OpCode.ABS, a, name=name)

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> DFG:
        """Finish construction and (optionally) validate the graph."""
        if validate:
            validate_dfg(self._dfg)
        return self._dfg

    @property
    def dfg(self) -> DFG:
        """Access the graph under construction without validation."""
        return self._dfg
