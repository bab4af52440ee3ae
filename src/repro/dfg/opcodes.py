"""Operation codes for DFG nodes and FU instructions.

The operation set mirrors what the paper's DSP48E1-based functional unit can
execute: two/three operand integer arithmetic and logic (the DSP ``D`` port is
unused by the overlay, so operations are restricted to two primary operands,
with squaring expressed as ``MUL(x, x)``).

Besides the compute operations the enum carries the *structural* opcodes the
tool flow needs:

* ``INPUT`` / ``OUTPUT`` / ``CONST`` — DFG boundary nodes produced by the
  frontend; they never appear in FU instruction streams.
* ``LOAD`` — a data word entering an FU's register file from the stream.
* ``PASS`` — a value forwarded unchanged through an FU (the linear
  interconnect has no skip connections, so multi-level values transit through
  every intermediate FU's ALU).
* ``NOP`` — inserted by the fixed-depth scheduler to satisfy the internal
  write-back path (IWP) spacing between dependent instructions.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict


_MASK32 = 0xFFFFFFFF


def _to_signed32(value: int) -> int:
    """Wrap an integer to signed 32-bit two's-complement range."""
    value &= _MASK32
    if value >= 0x80000000:
        value -= 0x100000000
    return value


class OpCode(enum.Enum):
    """Operation codes understood by the DFG IR and the FU ALU model."""

    # --- structural / boundary nodes -------------------------------------
    INPUT = "input"
    OUTPUT = "output"
    CONST = "const"

    # --- FU control opcodes ----------------------------------------------
    LOAD = "load"
    PASS = "pass"
    NOP = "nop"

    # --- DSP-supported arithmetic ------------------------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SQR = "sqr"          # unary square, executed as MUL(x, x) on the DSP
    MULADD = "muladd"    # a*b + c  (3-operand; uses the DSP post-adder)
    MULSUB = "mulsub"    # a*b - c
    NEG = "neg"

    # --- logic / shift -----------------------------------------------------
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"

    # --- comparison / select -----------------------------------------------
    MIN = "min"
    MAX = "max"
    ABS = "abs"

    # Members are singletons and ``==`` is identity, so they hash by identity
    # too.  ``Enum.__hash__`` is Python code (``hash(self._name_)``); this is
    # the C slot, so every opcode-keyed table lookup stays in C.
    __hash__ = object.__hash__

    # The properties below read flags and the arity that
    # :func:`_set_member_flags` stores on every member once at import time:
    # each ``OpCode.X`` lookup goes through ``EnumType.__getattr__`` on
    # Python 3.11, far too slow for the per-node paths that ask.
    _control: bool
    _compute: bool
    _arity: int
    _commutative: bool

    @property
    def is_control(self) -> bool:
        """True for FU-level control opcodes (LOAD / PASS / NOP)."""
        return self._control

    @property
    def is_compute(self) -> bool:
        """True for operations executed by the DSP ALU datapath."""
        return self._compute

    @property
    def arity(self) -> int:
        """Number of data operands consumed by the operation."""
        return self._arity

    @property
    def is_commutative(self) -> bool:
        return self._commutative

    def evaluate(self, *operands: int) -> int:
        """Evaluate the operation on signed 32-bit integer operands.

        The result wraps to the signed 32-bit range, matching the overflow
        behaviour of the 32-bit datapath carved out of the DSP48E1.
        """
        if self not in OP_SEMANTICS:
            raise ValueError(f"opcode {self.name} has no arithmetic semantics")
        expected = self.arity
        if len(operands) != expected:
            raise ValueError(
                f"{self.name} expects {expected} operands, got {len(operands)}"
            )
        return _to_signed32(OP_SEMANTICS[self](*operands))


#: Number of operands per opcode.  Structural opcodes are listed for
#: completeness (INPUT/CONST produce values, OUTPUT consumes one).
OP_ARITY: Dict[OpCode, int] = {
    OpCode.INPUT: 0,
    OpCode.CONST: 0,
    OpCode.OUTPUT: 1,
    OpCode.LOAD: 0,
    OpCode.PASS: 1,
    OpCode.NOP: 0,
    OpCode.ADD: 2,
    OpCode.SUB: 2,
    OpCode.MUL: 2,
    OpCode.SQR: 1,
    OpCode.MULADD: 3,
    OpCode.MULSUB: 3,
    OpCode.NEG: 1,
    OpCode.AND: 2,
    OpCode.OR: 2,
    OpCode.XOR: 2,
    OpCode.NOT: 1,
    OpCode.SHL: 2,
    OpCode.SHR: 2,
    OpCode.MIN: 2,
    OpCode.MAX: 2,
    OpCode.ABS: 1,
}


#: Python expression templates mirroring :data:`OP_SEMANTICS` (positional
#: placeholders are operand expressions).  Compiled stream evaluators
#: (:class:`repro.kernels.reference.StreamEvaluator`) inline these instead of
#: calling :meth:`OpCode.evaluate` per step; ``tests/test_opcodes.py``
#: asserts the two tables agree on every opcode and operand pattern.
OP_EXPRESSIONS: Dict["OpCode", str] = {}

#: Functional semantics of every opcode the ALU can execute.  ``PASS`` is the
#: identity; ``LOAD``/``NOP`` have no arithmetic meaning and are not listed.
OP_SEMANTICS: Dict[OpCode, Callable[..., int]] = {
    OpCode.PASS: lambda a: a,
    OpCode.ADD: lambda a, b: a + b,
    OpCode.SUB: lambda a, b: a - b,
    OpCode.MUL: lambda a, b: a * b,
    OpCode.SQR: lambda a: a * a,
    OpCode.MULADD: lambda a, b, c: a * b + c,
    OpCode.MULSUB: lambda a, b, c: a * b - c,
    OpCode.NEG: lambda a: -a,
    OpCode.AND: lambda a, b: a & b,
    OpCode.OR: lambda a, b: a | b,
    OpCode.XOR: lambda a, b: a ^ b,
    OpCode.NOT: lambda a: ~a,
    OpCode.SHL: lambda a, b: a << (b & 31),
    OpCode.SHR: lambda a, b: a >> (b & 31),
    OpCode.MIN: lambda a, b: min(a, b),
    OpCode.MAX: lambda a, b: max(a, b),
    OpCode.ABS: lambda a: abs(a),
}

OP_EXPRESSIONS.update({
    OpCode.PASS: "{0}",
    OpCode.ADD: "{0} + {1}",
    OpCode.SUB: "{0} - {1}",
    OpCode.MUL: "{0} * {1}",
    OpCode.SQR: "{0} * {0}",
    OpCode.MULADD: "{0} * {1} + {2}",
    OpCode.MULSUB: "{0} * {1} - {2}",
    OpCode.NEG: "-{0}",
    OpCode.AND: "{0} & {1}",
    OpCode.OR: "{0} | {1}",
    OpCode.XOR: "{0} ^ {1}",
    OpCode.NOT: "~{0}",
    OpCode.SHL: "{0} << ({1} & 31)",
    OpCode.SHR: "{0} >> ({1} & 31)",
    OpCode.MIN: "min({0}, {1})",
    OpCode.MAX: "max({0}, {1})",
    OpCode.ABS: "abs({0})",
})


#: Vectorized (numpy) variants of :data:`OP_EXPRESSIONS`: the same operation
#: applied element-wise to whole ``int64`` arrays of per-block operand values
#: (``np`` must be bound in the evaluation namespace).  Used by the batched
#: engine (:mod:`repro.engine.batchsim`) to evaluate every input block of a
#: stream in one expression instead of one Python statement per block.  The
#: templates stay exact for operands in the signed 32-bit range: every
#: intermediate is bounded by ``2**62 + 2**31`` (worst case MULADD of two
#: wrapped operands), which fits ``int64`` without overflow, and the caller
#: re-wraps each result to signed 32 bits — identical to ``OpCode.evaluate``
#: (``tests/test_opcodes.py`` pins the two tables against each other).
#: ``LOAD``/``NOP`` have no arithmetic meaning and are not listed; shift
#: counts are masked to 5 bits exactly like the scalar table.
OP_VECTOR_EXPRESSIONS: Dict["OpCode", str] = {
    OpCode.PASS: "{0}",
    OpCode.ADD: "{0} + {1}",
    OpCode.SUB: "{0} - {1}",
    OpCode.MUL: "{0} * {1}",
    OpCode.SQR: "{0} * {0}",
    OpCode.MULADD: "{0} * {1} + {2}",
    OpCode.MULSUB: "{0} * {1} - {2}",
    OpCode.NEG: "-{0}",
    OpCode.AND: "{0} & {1}",
    OpCode.OR: "{0} | {1}",
    OpCode.XOR: "{0} ^ {1}",
    OpCode.NOT: "~{0}",
    OpCode.SHL: "{0} << ({1} & 31)",
    OpCode.SHR: "{0} >> ({1} & 31)",
    OpCode.MIN: "np.minimum({0}, {1})",
    OpCode.MAX: "np.maximum({0}, {1})",
    OpCode.ABS: "np.abs({0})",
}


_STRUCTURAL_OPCODES = (OpCode.INPUT, OpCode.OUTPUT, OpCode.CONST)
_CONTROL_OPCODES = (OpCode.LOAD, OpCode.PASS, OpCode.NOP)
_COMMUTATIVE_OPCODES = (
    OpCode.ADD,
    OpCode.MUL,
    OpCode.AND,
    OpCode.OR,
    OpCode.XOR,
    OpCode.MIN,
    OpCode.MAX,
)


def _set_member_flags() -> None:
    """Store each member's classification flags and arity on the member."""
    for op in OpCode:
        op._control = op in _CONTROL_OPCODES
        op._compute = op not in _STRUCTURAL_OPCODES and not op._control
        op._arity = OP_ARITY[op]
        op._commutative = op in _COMMUTATIVE_OPCODES


_set_member_flags()

#: Compute opcodes that can appear as DFG operation nodes.
COMPUTE_OPCODES = tuple(op for op in OpCode if op.is_compute)


def parse_opcode(text: str) -> OpCode:
    """Parse an opcode from its textual (case-insensitive) name.

    Both the enum member name (``"ADD"``) and its value (``"add"``) are
    accepted, matching the spellings used in serialized DFGs and in benchmark
    kernel descriptions.
    """
    normalized = text.strip().lower()
    for op in OpCode:
        if op.value == normalized or op.name.lower() == normalized:
            return op
    raise ValueError(f"unknown opcode: {text!r}")
