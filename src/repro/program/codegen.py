"""Instruction generation: schedule slots to bit-exact FU instructions.

For every FU the generator produces:

* the **load map** — which register each arriving stream word is written to
  (the stream interface walks this map through the rotating offset counter);
* the **instruction stream** — one 32-bit :class:`~repro.overlay.isa.Instruction`
  per slot.  On the [14] baseline FU, loads are instructions too (the single
  register-file port makes them occupy issue slots), so its stream interleaves
  LOAD words with the ALU words; the rotating-RF variants only store the ALU
  words.

The generated words are what the configuration image
(:mod:`repro.program.binary`) packs, and what the context-switch model counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import CodegenError
from ..overlay.isa import Instruction, encode_instruction
from ..schedule.types import OverlaySchedule, ScheduledOp, SlotKind, StageSchedule
from .regalloc import RegisterAllocation, allocate_registers

# Bound once: ``SlotKind.X`` goes through ``EnumType.__getattr__`` per lookup.
_NOP = SlotKind.NOP
_PASS = SlotKind.PASS


@dataclass
class FUProgram:
    """The generated program of one FU."""

    stage: int
    allocation: RegisterAllocation
    load_map: List[Tuple[int, int]] = field(default_factory=list)
    instructions: List[Instruction] = field(default_factory=list)
    slot_value_ids: List[Optional[int]] = field(default_factory=list)

    @property
    def num_instruction_words(self) -> int:
        """Instruction-memory entries this FU's program occupies."""
        return len(self.instructions)

    def encoded_words(self) -> List[int]:
        """The program as raw 32-bit instruction words."""
        return [encode_instruction(i) for i in self.instructions]

    def listing(self) -> str:
        """Assembly-style listing (used by the CLI and the examples)."""
        lines = [f"FU{self.stage}:"]
        for value_id, register in self.load_map:
            lines.append(f"    ; stream word N{value_id} -> R{register}")
        for index, instruction in enumerate(self.instructions):
            lines.append(f"    {index:3d}: {instruction.mnemonic()}")
        return "\n".join(lines)


@dataclass
class OverlayProgram:
    """Programs for every FU of an overlay, for one kernel."""

    kernel_name: str
    overlay_name: str
    fu_programs: List[FUProgram]

    @property
    def total_instruction_words(self) -> int:
        """Instruction words across every FU (configuration-size driver)."""
        return sum(p.num_instruction_words for p in self.fu_programs)

    def listing(self) -> str:
        """Assembly-style listing of every FU program (CLI ``--program``)."""
        return "\n".join(p.listing() for p in self.fu_programs)


def generate_program(schedule: OverlaySchedule) -> OverlayProgram:
    """Generate per-FU instruction streams for a scheduled kernel.

    Raises
    ------
    CodegenError
        If a stage needs more instruction-memory entries than the FU has,
        register allocation fails, or an operation reads three operands
        (``MULADD``/``MULSUB``: the instruction word has no field for the
        third).
    """
    programs: List[FUProgram] = []
    for stage in schedule.stages:
        allocation = allocate_registers(stage, schedule.variant, schedule.dfg)
        program = _generate_stage(stage, allocation, schedule)
        capacity = schedule.variant.instruction_memory_depth
        if program.num_instruction_words > capacity:
            raise CodegenError(
                f"stage {stage.stage} of kernel {schedule.kernel_name!r} needs "
                f"{program.num_instruction_words} instruction words but the "
                f"{schedule.variant.paper_label} FU instruction memory holds {capacity}"
            )
        programs.append(program)
    return OverlayProgram(
        kernel_name=schedule.kernel_name,
        overlay_name=schedule.overlay.name,
        fu_programs=programs,
    )


def _generate_stage(
    stage: StageSchedule,
    allocation: RegisterAllocation,
    schedule: OverlaySchedule,
) -> FUProgram:
    variant = schedule.variant
    load_map = [(value_id, allocation.register_of(value_id)) for value_id in stage.load_order]

    instructions: List[Instruction] = []
    slot_values: List[Optional[int]] = []

    if not variant.overlap_load_execute:
        # The baseline FU issues loads through the instruction stream.
        for value_id, register in load_map:
            instructions.append(Instruction.load(register))
            slot_values.append(value_id)

    for slot in stage.slots:
        instructions.append(_encode_slot(slot, allocation))
        slot_values.append(slot.value_id)

    return FUProgram(
        stage=stage.stage,
        allocation=allocation,
        load_map=load_map,
        instructions=instructions,
        slot_value_ids=slot_values,
    )


def _encode_slot(slot: ScheduledOp, allocation: RegisterAllocation) -> Instruction:
    if slot.kind is _NOP:
        return Instruction.nop()
    if slot.kind is _PASS:
        if slot.value_id is None:
            raise CodegenError("PASS slot without a value")
        return Instruction.passthrough(
            ra=allocation.register_of(slot.value_id),
            wb=slot.write_back,
            ndf=not slot.forward,
        )
    if slot.value_id is None:
        raise CodegenError("COMPUTE slot without a produced value")
    operands = list(slot.operands)
    if len(operands) > 2:
        # The 32-bit word has fields for ra and rb only; dropping the third
        # operand would encode a different computation.
        raise CodegenError(
            f"{slot.opcode.name} reads {len(operands)} operands but an instruction "
            "word encodes two"
        )
    ra = allocation.register_of(operands[0]) if operands else 0
    rb = allocation.register_of(operands[1]) if len(operands) > 1 else 0
    rd = 0
    if slot.write_back:
        rd = allocation.register_of(slot.value_id)
    return Instruction.exec(
        opcode=slot.opcode,
        ra=ra,
        rb=rb,
        rd=rd,
        wb=slot.write_back,
        ndf=not slot.forward,
    )
