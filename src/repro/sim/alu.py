"""Behavioural model of the DSP-block ALU datapath.

The FU's arithmetic is a 32-bit slice of the DSP48E1: two (or three) operand
integer operations with wrap-around two's-complement semantics.  The shared
opcode semantics live in :mod:`repro.dfg.opcodes`; this module adds the
FU-level view (PASS is an ALU operation too — it is how a value crosses the
FU on its way downstream) and a small amount of defensive checking so that
scheduler/codegen bugs surface as :class:`SimulationError` rather than as
silently wrong data.
"""

from __future__ import annotations

from typing import Sequence

from ..dfg.opcodes import OpCode, _to_signed32
from ..errors import SimulationError

#: Value range of the 32-bit datapath (signed two's complement).
INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1


def alu_execute(opcode: OpCode, operands: Sequence[int]) -> int:
    """Execute one ALU operation on already-fetched operand values.

    ``PASS`` returns its single operand unchanged (the datapath realises it
    as an addition with zero); ``NOP`` is rejected because a NOP slot never
    reaches the ALU issue stage in the simulator.
    """
    if opcode is OpCode.NOP:
        raise SimulationError("NOP slots must not be issued to the ALU")
    if opcode is OpCode.PASS:
        if len(operands) != 1:
            raise SimulationError(f"PASS expects 1 operand, got {len(operands)}")
        return _to_signed32(operands[0])
    expected = opcode.arity
    if len(operands) != expected:
        raise SimulationError(
            f"{opcode.name} expects {expected} operands, got {len(operands)}"
        )
    return opcode.evaluate(*(int(v) for v in operands))

