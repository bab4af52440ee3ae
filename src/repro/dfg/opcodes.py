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
from typing import Callable, Dict, List, Sequence, Set, Tuple


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
#: templates are exact wherever no ``int64`` intermediate overflows, which
#: :class:`IntervalWalk` guarantees by wrapping operands first where an
#: interval could leave ``int64`` (operands in the signed 32-bit range
#: never can: the worst case, a MULADD, is ``2**62 + 2**31``); wrapped to 32
#: bits, results are identical to ``OpCode.evaluate``
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


# ---------------------------------------------------------------------------
# where generated value planes wrap to 32 bits
# ---------------------------------------------------------------------------
Interval = Tuple[int, int]

#: The signed 32-bit word range.
WORD_RANGE: Interval = (-(2 ** 31), 2 ** 31 - 1)
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
#: The scalar plane wraps a result whose interval reaches this magnitude at
#: once: a larger Python int costs more in every later operation.
_SCALAR_BOUND = 2 ** 62

#: Operations whose result modulo 2**32 depends only on their operands
#: modulo 2**32, so a plane may compute them on unwrapped operands.
RING_OPCODES = frozenset({
    OpCode.PASS,
    OpCode.ADD,
    OpCode.SUB,
    OpCode.MUL,
    OpCode.SQR,
    OpCode.MULADD,
    OpCode.MULSUB,
    OpCode.NEG,
    OpCode.AND,
    OpCode.OR,
    OpCode.XOR,
    OpCode.NOT,
    OpCode.SHL,
})

#: The operands the other operations read as signed 32-bit words.  A shift
#: count reads only its low five bits, so SHR's second operand is not one.
SIGNED_OPERANDS: Dict[OpCode, Tuple[int, ...]] = {
    OpCode.SHR: (0,),
    OpCode.MIN: (0, 1),
    OpCode.MAX: (0, 1),
    OpCode.ABS: (0,),
}


def _hull(*values: int) -> Interval:
    return min(values), max(values)


def _mul(a: Interval, b: Interval) -> Interval:
    return _hull(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def _sqr(a: Interval) -> Interval:
    low, high = a
    if low >= 0:
        return low * low, high * high
    if high <= 0:
        return high * high, low * low
    return 0, max(low * low, high * high)


def _bits(*intervals: Interval) -> int:
    """The least ``m`` with every bound in ``[-2**m, 2**m - 1]``."""
    return max((x if x >= 0 else ~x).bit_length() for interval in intervals for x in interval)


def _and(a: Interval, b: Interval) -> Interval:
    # A non-negative operand bounds the result by itself.
    highs = [interval[1] for interval in (a, b) if interval[0] >= 0]
    if highs:
        return 0, min(highs)
    m = _bits(a, b)
    return -(1 << m), (1 << m) - 1


def _or_xor(a: Interval, b: Interval) -> Interval:
    m = _bits(a, b)
    return (0 if a[0] >= 0 and b[0] >= 0 else -(1 << m)), (1 << m) - 1


def _count(b: Interval) -> Interval:
    """The shift counts ``b & 31`` can take."""
    return b if 0 <= b[0] and b[1] <= 31 else (0, 31)


def _abs(a: Interval) -> Interval:
    low, high = a
    if low >= 0:
        return a
    if high <= 0:
        return -high, -low
    return 0, max(-low, high)


#: The interval of each operation's result (before any wrap) over operands
#: in the given intervals; ``tests/test_opcodes.py`` samples every entry
#: against :data:`OP_SEMANTICS`.
OP_INTERVALS: Dict[OpCode, Callable[..., Interval]] = {
    OpCode.PASS: lambda a: a,
    OpCode.ADD: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    OpCode.SUB: lambda a, b: (a[0] - b[1], a[1] - b[0]),
    OpCode.MUL: _mul,
    OpCode.SQR: _sqr,
    OpCode.MULADD: lambda a, b, c: (_mul(a, b)[0] + c[0], _mul(a, b)[1] + c[1]),
    OpCode.MULSUB: lambda a, b, c: (_mul(a, b)[0] - c[1], _mul(a, b)[1] - c[0]),
    OpCode.NEG: lambda a: (-a[1], -a[0]),
    OpCode.AND: _and,
    OpCode.OR: _or_xor,
    OpCode.XOR: _or_xor,
    OpCode.NOT: lambda a: (~a[1], ~a[0]),
    # A shift is monotonic in its value and in its count, so the corners bound it.
    OpCode.SHL: lambda a, b: _hull(*[x << s for x in a for s in _count(b)]),
    OpCode.SHR: lambda a, b: _hull(*[x >> s for x in a for s in _count(b)]),
    OpCode.MIN: lambda a, b: (min(a[0], b[0]), min(a[1], b[1])),
    OpCode.MAX: lambda a, b: (max(a[0], b[0]), max(a[1], b[1])),
    OpCode.ABS: _abs,
}


class IntervalWalk:
    """Where one generated value plane wraps its values to signed 32 bits.

    Every plane (the scalar and numpy DFG planes of
    :mod:`repro.kernels.reference`, the batched engine's image plan) holds
    each operation's result as an integer congruent modulo ``2**32`` to the
    word :meth:`OpCode.evaluate` gives, and rests on one fact: the result of
    a :data:`RING_OPCODES` operation modulo ``2**32`` depends only on its
    operands modulo ``2**32``.  So a value is wrapped only

    * at an output, since an output is a word;
    * before an operand that SHR, MIN, MAX or ABS reads as a signed word
      (:data:`SIGNED_OPERANDS`);
    * before an operation whose result interval (:data:`OP_INTERVALS`)
      could leave ``int64``, widest operand first, so no numpy ``int64``
      intermediate ever overflows;
    * on the scalar plane, as soon as its interval reaches ``2**62``, so
      Python ints stay small.

    Skipping a wrap needs the value's interval, which holds for any input
    on a numpy plane (its inputs are checked to be words).  On the scalar
    plane an input may lie outside int32, and an operation reads its raw
    value as :func:`~repro.kernels.reference.evaluate_dfg` does, so there an
    interval counts only where no input reaches the value unwrapped: such
    a value is *exact*.  Any other output or signed-word operand gets the
    conditional wrap, and an operation of the other four that reads a raw
    input wraps its result at once.  Outputs therefore equal the oracle's
    on both planes.

    Declare the plane's inputs and constants, then feed each operation in
    execution order: :meth:`op` and :meth:`outputs` return the statements to
    emit.  ``wrap`` is the statement that wraps the variable ``{0}`` in
    place; a wrapped variable is a word from there on, for every later
    reader.  An input is never wrapped in place (a later operation may read
    it raw), nor is a constant (constants are words).
    """

    def __init__(self, wrap: str, scalar: bool):
        self._wrap = wrap
        self._scalar = scalar
        self._ranges: Dict[str, Interval] = {}
        self._exact: Set[str] = set()
        self._inputs: Set[str] = set()

    def input(self, name: str) -> None:
        self._ranges[name] = WORD_RANGE
        self._inputs.add(name)
        if not self._scalar:
            self._exact.add(name)

    def const(self, name: str, value: int) -> None:
        self._ranges[name] = (value, value)
        self._exact.add(name)

    def _in_word_range(self, name: str) -> bool:
        low, high = self._ranges[name]
        return WORD_RANGE[0] <= low and high <= WORD_RANGE[1]

    def _is_word(self, name: str) -> bool:
        return name in self._exact and self._in_word_range(name)

    def _wrap_in_place(self, name: str) -> str:
        self._ranges[name] = WORD_RANGE
        self._exact.add(name)
        return self._wrap.format(name)

    def op(self, opcode: OpCode, result: str, operands: Sequence[str], template: str) -> List[str]:
        """The statements that compute ``result = opcode(*operands)`` with
        ``template`` (an :data:`OP_EXPRESSIONS`-style entry), with the wraps
        it needs before and after."""
        ranges = self._ranges
        lines = []
        for index in SIGNED_OPERANDS.get(opcode, ()):
            name = operands[index]
            if name not in self._inputs and not self._is_word(name):
                lines.append(self._wrap_in_place(name))
        interval = OP_INTERVALS[opcode]
        low, high = interval(*[ranges[name] for name in operands])
        while low < _INT64_MIN or high > _INT64_MAX:
            # Operands inside int32 cannot overflow int64 in any operation.
            widest = max(
                (name for name in operands if not self._in_word_range(name)),
                key=lambda name: max(-ranges[name][0], ranges[name][1]),
            )
            lines.append(self._wrap_in_place(widest))
            low, high = interval(*[ranges[name] for name in operands])
        lines.append(f"{result} = " + template.format(*operands))
        ranges[result] = (low, high)
        if self._exact.issuperset(operands):
            self._exact.add(result)
        if self._scalar and (
            (opcode not in RING_OPCODES and result not in self._exact)
            or max(-low, high) >= _SCALAR_BOUND
        ):
            lines.append(self._wrap_in_place(result))
        return lines

    def outputs(self, names: Sequence[str]) -> List[str]:
        """The statements that make each output variable a word."""
        return [
            self._wrap_in_place(name) for name in dict.fromkeys(names) if not self._is_word(name)
        ]


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
