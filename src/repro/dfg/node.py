"""DFG node representation.

A node is an SSA value: it is produced exactly once (by its operation) and
consumed by zero or more downstream nodes.  Nodes are identified by small
integer ids that are unique within their graph; the id order is also the
creation order, which the serializers and the visualizer rely on for stable
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .opcodes import COMPUTE_OPCODES, OpCode, _to_signed32

# Members bound once: ``OpCode.X`` goes through ``EnumType.__getattr__`` on
# every lookup, and these checks run for every node of every pass.
_INPUT = OpCode.INPUT
_OUTPUT = OpCode.OUTPUT
_CONST = OpCode.CONST
_COMPUTE = frozenset(COMPUTE_OPCODES)


@dataclass(frozen=True)
class DFGNode:
    """A single node of a data-flow graph.

    Attributes
    ----------
    node_id:
        Integer id, unique within the owning :class:`~repro.dfg.graph.DFG`.
    opcode:
        The operation this node performs (see :class:`OpCode`).
    operands:
        Tuple of producer node ids, in operand order.  Empty for ``INPUT`` and
        ``CONST`` nodes.
    name:
        Human-readable name.  For inputs/outputs this is the port name used by
        the reference model and the streaming interface (``"I0"``, ``"O0"``);
        for operations it defaults to ``"<OP>_N<id>"`` in the style of the
        paper's figures (e.g. ``SUB_N6``).
    value:
        Constant value for ``CONST`` nodes, otherwise ``None``.  Stored as
        the signed 32-bit word the FU's constant register holds (``2**31``
        is ``-2**31``), since ``min``, ``max``, ``abs`` and ``>>`` read the
        sign.
    """

    node_id: int
    opcode: OpCode
    operands: Tuple[int, ...] = ()
    name: str = ""
    value: Optional[int] = None

    def __post_init__(self) -> None:
        opcode = self.opcode
        if opcode is _CONST:
            if self.value is None:
                raise ValueError("CONST node requires a value")
            object.__setattr__(self, "value", _to_signed32(self.value))
        elif self.value is not None:
            raise ValueError(f"{opcode.name} node must not carry a constant value")
        if opcode in _COMPUTE or opcode is _OUTPUT:
            expected = opcode.arity
            if len(self.operands) != expected:
                raise ValueError(
                    f"{opcode.name} node expects {expected} operands, "
                    f"got {len(self.operands)}"
                )
        if not self.name:
            object.__setattr__(self, "name", default_name(self.node_id, opcode))

    # ------------------------------------------------------------------
    @property
    def is_input(self) -> bool:
        return self.opcode is _INPUT

    @property
    def is_output(self) -> bool:
        return self.opcode is _OUTPUT

    @property
    def is_const(self) -> bool:
        return self.opcode is _CONST

    @property
    def is_operation(self) -> bool:
        """True if the node is executed by an FU (i.e. a compute node)."""
        return self.opcode in _COMPUTE

    def with_operands(self, operands: Tuple[int, ...]) -> "DFGNode":
        """Return a copy of the node with different operand ids."""
        return DFGNode(
            node_id=self.node_id,
            opcode=self.opcode,
            operands=tuple(operands),
            name=self.name,
            value=self.value,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_const:
            return f"{self.name}={self.value}"
        if self.operands:
            args = ", ".join(f"N{o}" for o in self.operands)
            return f"{self.name}({args})"
        return self.name


_NAME_PREFIX = {op: op.name for op in OpCode}
_NAME_PREFIX.update({_INPUT: "I", _OUTPUT: "O", _CONST: "C"})


def default_name(node_id: int, opcode: OpCode) -> str:
    """Build the paper-style default node name (e.g. ``SUB_N6``)."""
    return f"{_NAME_PREFIX[opcode]}_N{node_id}"


@dataclass(frozen=True)
class DFGEdge:
    """A directed data edge ``producer -> consumer`` with operand position."""

    producer: int
    consumer: int
    operand_index: int = 0
