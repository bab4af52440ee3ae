"""FU instruction format: 32-bit encode / decode.

The paper keeps the FU instruction at 32 bits even after adding write-back:
because the overlay only ever uses two- or three-operand DSP operations, the
DSP ``D`` port is unused and three bits of the DSP ``inmode`` field can be
hardwired — freeing one bit for the write-back (WB) flag, one for the
no-data-forward (NDF) flag and one reserved bit.

This module defines a concrete 32-bit layout carrying everything the overlay
needs and provides bit-exact encode/decode.  Layout (LSB first)::

    [1:0]   kind      00=NOP, 01=EXEC, 10=PASS, 11=LOAD (baseline FU only)
    [6:2]   opcode    ALU function (see _ALU_OPCODE_CODES)
    [11:7]  ra        register-file address of operand A
    [16:12] rb        register-file address of operand B
    [21:17] rd        register-file write-back address
    [22]    wb        write result back to the register file
    [23]    ndf       do NOT forward the result to the next FU
    [31:24] reserved  (the hardwired part of the DSP inmode/opmode fields)

Configuration images (the per-FU instruction-memory contents that the ARM
core writes over AXI before starting a kernel) are produced by
:mod:`repro.program.binary` from sequences of these words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from ..dfg.opcodes import OpCode
from ..errors import EncodingError


class InstructionKind(enum.IntEnum):
    """Top-level instruction class stored in the two kind bits."""

    NOP = 0
    EXEC = 1
    PASS = 2
    LOAD = 3


#: ALU opcode field encodings.  PASS re-uses the ADD datapath with a zero
#: operand in hardware but keeps its own code here for readability of traces.
_ALU_OPCODE_CODES: Dict[OpCode, int] = {
    OpCode.NOP: 0,
    OpCode.PASS: 1,
    OpCode.ADD: 2,
    OpCode.SUB: 3,
    OpCode.MUL: 4,
    OpCode.SQR: 5,
    OpCode.MULADD: 6,
    OpCode.MULSUB: 7,
    OpCode.NEG: 8,
    OpCode.AND: 9,
    OpCode.OR: 10,
    OpCode.XOR: 11,
    OpCode.NOT: 12,
    OpCode.SHL: 13,
    OpCode.SHR: 14,
    OpCode.MIN: 15,
    OpCode.MAX: 16,
    OpCode.ABS: 17,
    OpCode.LOAD: 18,
}

_ALU_CODE_TO_OPCODE: Dict[int, OpCode] = {v: k for k, v in _ALU_OPCODE_CODES.items()}

# Members bound once for the per-word paths below: ``X.MEMBER`` goes
# through ``EnumType.__getattr__`` and ``InstructionKind(bits)`` through the
# Enum constructor, both Python code, on every call.
_NOP = InstructionKind.NOP
_EXEC = InstructionKind.EXEC
_PASS = InstructionKind.PASS
_LOAD = InstructionKind.LOAD
_NOP_OPCODE = OpCode.NOP
_PASS_OPCODE = OpCode.PASS
_LOAD_OPCODE = OpCode.LOAD
#: Kinds indexed by the two kind bits.
_KINDS = (_NOP, _EXEC, _PASS, _LOAD)
#: The kinds that may set the WB flag (a set, so plain ints compare equal).
_WB_KINDS = frozenset((_EXEC, _PASS))

_REG_FIELD_BITS = 5
_OPCODE_FIELD_BITS = 5
_MAX_REG = (1 << _REG_FIELD_BITS) - 1
_MAX_OPCODE = (1 << _OPCODE_FIELD_BITS) - 1


@dataclass(frozen=True)
class Instruction:
    """A decoded FU instruction.

    ``ra``/``rb``/``rd`` are register-file addresses (0-31).  Unused operand
    fields are 0 by convention.  The WB and NDF flags correspond to the two
    bits the paper steals from the DSP ``inmode`` field.
    """

    kind: InstructionKind
    opcode: OpCode = OpCode.NOP
    ra: int = 0
    rb: int = 0
    rd: int = 0
    wb: bool = False
    ndf: bool = False

    def __post_init__(self) -> None:
        for field_name, value in (("ra", self.ra), ("rb", self.rb), ("rd", self.rd)):
            if not 0 <= value <= _MAX_REG:
                raise EncodingError(
                    f"register field {field_name}={value} outside 0..{_MAX_REG}"
                )
        if self.opcode not in _ALU_OPCODE_CODES:
            raise EncodingError(f"opcode {self.opcode.name} has no ALU encoding")
        if self.wb and self.kind not in _WB_KINDS:
            raise EncodingError("only EXEC/PASS instructions may set the WB flag")

    # ------------------------------------------------------------------
    @classmethod
    def nop(cls) -> "Instruction":
        return cls(kind=_NOP, opcode=_NOP_OPCODE)

    @classmethod
    def load(cls, rd: int) -> "Instruction":
        """A baseline-FU load slot writing the next stream word to ``rd``."""
        return cls(kind=_LOAD, opcode=_LOAD_OPCODE, rd=rd)

    @classmethod
    def passthrough(cls, ra: int, wb: bool = False, ndf: bool = False) -> "Instruction":
        return cls(kind=_PASS, opcode=_PASS_OPCODE, ra=ra, wb=wb, ndf=ndf)

    @classmethod
    def exec(
        cls,
        opcode: OpCode,
        ra: int,
        rb: int = 0,
        rd: int = 0,
        wb: bool = False,
        ndf: bool = False,
    ) -> "Instruction":
        return cls(kind=_EXEC, opcode=opcode, ra=ra, rb=rb, rd=rd, wb=wb, ndf=ndf)

    def mnemonic(self) -> str:
        """Assembly-like rendering used in traces and the Table II harness."""
        if self.kind is InstructionKind.NOP:
            return "NOP"
        if self.kind is InstructionKind.LOAD:
            return f"LOAD R{self.rd}"
        flags = ""
        if self.wb:
            flags += f" ->R{self.rd}"
        if self.ndf:
            flags += " [ndf]"
        if self.kind is InstructionKind.PASS:
            return f"PASS (R{self.ra}){flags}"
        if self.opcode.arity == 1:
            return f"{self.opcode.name} (R{self.ra}){flags}"
        return f"{self.opcode.name} (R{self.ra} R{self.rb}){flags}"


def encode_instruction(instruction: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit word."""
    opcode_code = _ALU_OPCODE_CODES[instruction.opcode]
    if opcode_code > _MAX_OPCODE:
        raise EncodingError(
            f"opcode {instruction.opcode.name} code {opcode_code} does not fit "
            f"in {_OPCODE_FIELD_BITS} bits"
        )
    word = int(instruction.kind) & 0x3
    word |= opcode_code << 2
    word |= (instruction.ra & _MAX_REG) << 7
    word |= (instruction.rb & _MAX_REG) << 12
    word |= (instruction.rd & _MAX_REG) << 17
    word |= (1 if instruction.wb else 0) << 22
    word |= (1 if instruction.ndf else 0) << 23
    return word & 0xFFFFFFFF


def decode_instruction(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise EncodingError(f"instruction word {word:#x} is not a 32-bit value")
    kind = _KINDS[word & 0x3]
    opcode_code = (word >> 2) & _MAX_OPCODE
    if opcode_code not in _ALU_CODE_TO_OPCODE:
        raise EncodingError(f"unknown ALU opcode code {opcode_code} in word {word:#010x}")
    return Instruction(
        kind=kind,
        opcode=_ALU_CODE_TO_OPCODE[opcode_code],
        ra=(word >> 7) & _MAX_REG,
        rb=(word >> 12) & _MAX_REG,
        rd=(word >> 17) & _MAX_REG,
        wb=bool((word >> 22) & 1),
        ndf=bool((word >> 23) & 1),
    )
