"""Seeded-defect mutation harness for the verification passes.

In the style of :mod:`repro.engine.faults`, but aimed at the linter instead
of the runtime: each registered mutation takes a *clean* compiled artifact
(a :class:`~repro.verify.engine.VerifyContext`) and returns a corrupted copy
exhibiting exactly one defect class — a dangling DFG operand, a dependence
scheduled backwards, an aliased register, a flipped instruction bit, a
cache key naming another kernel.  The test suite then proves the linter is not
vacuous: every mutant must be flagged by the intended pass (with the
expected diagnostic code) while the clean artifact yields zero diagnostics.

Mutations corrupt exactly one layer and strip the artifact pieces whose
*derived* claims the corruption would legitimately invalidate (a mutated DFG
no longer matches the cache key's content fingerprint, a padded stage no
longer matches the encoded program), so each mutant isolates one
diagnostic family.  Originals are never modified — frozen dataclasses are
re-built field-by-field around the corrupted piece.

A mutation that cannot apply to a given artifact (no in-stage dependence to
reorder, no constants to collide) returns ``None``; callers pick a grid
point where it applies (``applicable_mutations``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from ..registry import Registry
from ..schedule.types import ScheduledOp, SlotKind
from .engine import VerifyContext

#: A mutation: clean context in, corrupted context (or None) out.
Mutator = Callable[[VerifyContext], Optional[VerifyContext]]


@dataclass(frozen=True)
class MutationSpec:
    """Identity of one seeded defect."""

    name: str
    #: Defect class: ``dfg`` | ``schedule`` | ``regalloc`` | ``binary`` | ``spec``.
    defect_class: str
    #: The diagnostic code the corresponding pass must raise.
    expected_code: str
    description: str


#: Every seeded defect with its mutator, in registration order.
MUTATIONS: Registry[Tuple[MutationSpec, Mutator]] = Registry("mutation")


def _mutation(name: str, defect_class: str, expected_code: str, description: str):
    def decorate(func: Mutator) -> Mutator:
        spec = MutationSpec(
            name=name,
            defect_class=defect_class,
            expected_code=expected_code,
            description=description,
        )
        MUTATIONS.add(name, (spec, func))
        return func

    return decorate


def mutation_names() -> Tuple[str, ...]:
    return tuple(MUTATIONS.names())


def get_mutation(name: str) -> MutationSpec:
    return MUTATIONS.get(name)[0]


def apply_mutation(ctx: VerifyContext, name: str) -> Optional[VerifyContext]:
    """The corrupted copy of ``ctx``, or None when the mutation cannot apply."""
    return MUTATIONS.get(name)[1](ctx)


def applicable_mutations(ctx: VerifyContext) -> Tuple[str, ...]:
    """Names of every mutation that applies to this artifact."""
    return tuple(name for name in mutation_names() if apply_mutation(ctx, name) is not None)


# ---------------------------------------------------------------------------
# cloning helpers (bypass __post_init__: we are building illegal artifacts)
# ---------------------------------------------------------------------------
def _clone(obj, **overrides):
    new = object.__new__(type(obj))
    for f in fields(obj):
        object.__setattr__(new, f.name, overrides.get(f.name, getattr(obj, f.name)))
    return new


def _editable_dfg(dfg):
    """A copy of ``dfg`` whose node table a mutation may edit in place.

    :meth:`~repro.dfg.graph.DFG.copy` shares the source's derived values
    (topological order, levels, fingerprint); an edit that bypasses
    ``add_node`` must not read them, so the copy gets its own.
    """
    bad = dfg.copy()
    bad._derived = None
    return bad


def _with_stage(ctx: VerifyContext, index: int, stage) -> VerifyContext:
    stages = list(ctx.schedule.stages)
    stages[index] = stage
    return _clone(
        ctx,
        schedule=_clone(ctx.schedule, stages=stages),
        # The encoded program describes the clean schedule; strip it so
        # only the seeded defect is visible.
        program=None,
        configuration=None,
    )


def _wb_dependences(stage) -> List[Tuple[int, int, int]]:
    """(producer_slot, consumer_slot, value) pairs chained through the RF."""
    pairs: List[Tuple[int, int, int]] = []
    written: Dict[int, int] = {}
    loaded = set(stage.load_order)
    for index, slot in enumerate(stage.slots):
        if slot.kind is SlotKind.COMPUTE:
            for operand in slot.operands:
                if operand in written and operand not in loaded:
                    pairs.append((written[operand], index, operand))
            if slot.write_back and slot.value_id is not None:
                written[slot.value_id] = index
    return pairs


# ---------------------------------------------------------------------------
# DFG defects
# ---------------------------------------------------------------------------
@_mutation(
    "dfg-dangling-operand",
    "dfg",
    "DFG002",
    "drop a producer node so a consumer's operand dangles",
)
def _dfg_dangling(ctx: VerifyContext) -> Optional[VerifyContext]:
    dfg = ctx.dfg
    victim = next(
        (
            node.node_id
            for node in dfg.operations()
            if any(dfg.node(c).is_operation for c, _ in dfg.consumers(node.node_id))
        ),
        None,
    )
    if victim is None:
        return None
    bad = _editable_dfg(dfg)
    bad._nodes.pop(victim)
    return _clone(
        ctx,
        schedule=_clone(ctx.schedule, dfg=bad),
        key=None,  # the content fingerprint legitimately no longer matches
    )


@_mutation(
    "dfg-cycle",
    "dfg",
    "DFG006",
    "rewire an operand so two operations form a dependence cycle",
)
def _dfg_cycle(ctx: VerifyContext) -> Optional[VerifyContext]:
    dfg = ctx.dfg
    edge = next(
        (
            (node.node_id, consumer)
            for node in dfg.operations()
            for consumer, _ in dfg.consumers(node.node_id)
            if dfg.node(consumer).is_operation
        ),
        None,
    )
    if edge is None:
        return None
    producer, consumer = edge
    bad = _editable_dfg(dfg)
    node = bad.node(producer)
    operands = (consumer,) + tuple(node.operands[1:])
    bad._nodes[producer] = node.with_operands(operands)
    return _clone(ctx, schedule=_clone(ctx.schedule, dfg=bad), key=None)


# ---------------------------------------------------------------------------
# schedule defects
# ---------------------------------------------------------------------------
@_mutation(
    "sched-stage-dropped",
    "schedule",
    "SCHED001",
    "drop the last stage so the schedule no longer spans the overlay",
)
def _sched_stage_dropped(ctx: VerifyContext) -> Optional[VerifyContext]:
    if len(ctx.schedule.stages) < 2:
        return None
    return _clone(
        ctx,
        schedule=_clone(ctx.schedule, stages=list(ctx.schedule.stages[:-1])),
        program=None,
        configuration=None,
    )


@_mutation(
    "sched-op-dropped",
    "schedule",
    "SCHED002",
    "replace a compute slot with a NOP so an operation is never scheduled",
)
def _sched_op_dropped(ctx: VerifyContext) -> Optional[VerifyContext]:
    for index, stage in enumerate(ctx.schedule.stages):
        for slot_index, slot in enumerate(stage.slots):
            if slot.kind is SlotKind.COMPUTE:
                slots = list(stage.slots)
                slots[slot_index] = ScheduledOp.nop()
                return _with_stage(ctx, index, _clone(stage, slots=slots))
    return None


@_mutation(
    "sched-slots-reordered",
    "schedule",
    "SCHED004",
    "swap a write-back producer behind its same-stage consumer",
)
def _sched_slots_reordered(ctx: VerifyContext) -> Optional[VerifyContext]:
    for index, stage in enumerate(ctx.schedule.stages):
        pairs = _wb_dependences(stage)
        if not pairs:
            continue
        producer, consumer, _ = pairs[0]
        slots = list(stage.slots)
        slots[producer], slots[consumer] = slots[consumer], slots[producer]
        return _with_stage(ctx, index, _clone(stage, slots=slots))
    return None


@_mutation(
    "sched-iwp-compressed",
    "schedule",
    "SCHED005",
    "strip the NOP padding so a write-back dependence violates the IWP",
)
def _sched_iwp_compressed(ctx: VerifyContext) -> Optional[VerifyContext]:
    distance = ctx.overlay.variant.dependence_distance
    if distance <= 1:
        return None
    for index, stage in enumerate(ctx.schedule.stages):
        compressed = [slot for slot in stage.slots if not slot.is_nop]
        if len(compressed) == len(stage.slots):
            continue
        squeezed = _clone(stage, slots=compressed)
        if any(c - p < distance for p, c, _ in _wb_dependences(squeezed)):
            return _with_stage(ctx, index, squeezed)
    return None


@_mutation(
    "sched-imem-overflow",
    "schedule",
    "SCHED006",
    "pad a stage with NOPs past the FU instruction-memory depth",
)
def _sched_imem_overflow(ctx: VerifyContext) -> Optional[VerifyContext]:
    stage = ctx.schedule.stages[0]
    depth = ctx.overlay.variant.instruction_memory_depth
    padding = depth + 1 - stage.num_instructions
    slots = list(stage.slots) + [ScheduledOp.nop()] * padding
    return _with_stage(ctx, 0, _clone(stage, slots=slots))


@_mutation(
    "sched-fifo-swapped",
    "schedule",
    "SCHED007",
    "permute a stage's load order against the upstream emission order",
)
def _sched_fifo_swapped(ctx: VerifyContext) -> Optional[VerifyContext]:
    for index, stage in enumerate(ctx.schedule.stages):
        if stage.num_loads >= 2:
            load_order = list(stage.load_order)
            load_order[0], load_order[1] = load_order[1], load_order[0]
            return _with_stage(ctx, index, _clone(stage, load_order=load_order))
    return None


@_mutation(
    "sched-output-unemitted",
    "schedule",
    "SCHED010",
    "set NDF on the last stage's slot that emits an output's value",
)
def _sched_output_unemitted(ctx: VerifyContext) -> Optional[VerifyContext]:
    index = len(ctx.schedule.stages) - 1
    stage = ctx.schedule.stages[index]
    sources = {output.operands[0] for output in ctx.dfg.outputs()}
    for slot_index, slot in enumerate(stage.slots):
        if slot.emits and slot.value_id in sources:
            slots = list(stage.slots)
            slots[slot_index] = _clone(slot, forward=False)
            return _with_stage(ctx, index, _clone(stage, slots=slots))
    return None


# ---------------------------------------------------------------------------
# register-allocation defects
# ---------------------------------------------------------------------------
def _with_allocation(ctx: VerifyContext, fu_index: int, allocation, *, keep_image: bool):
    programs = list(ctx.program.fu_programs)
    programs[fu_index] = _clone(programs[fu_index], allocation=allocation)
    return _clone(
        ctx,
        program=_clone(ctx.program, fu_programs=programs),
        configuration=ctx.configuration if keep_image else None,
    )


@_mutation(
    "reg-overlap",
    "regalloc",
    "REG001",
    "alias two simultaneously-live values onto one register",
)
def _reg_overlap(ctx: VerifyContext) -> Optional[VerifyContext]:
    from ..program.regalloc import compute_live_intervals

    if ctx.program is None:
        return None
    for fu_index, fu_program in enumerate(ctx.program.fu_programs):
        values = dict(fu_program.allocation.value_registers)
        stage = ctx.schedule.stages[fu_program.stage]
        intervals = {i.value_id: i for i in compute_live_intervals(stage)}
        live = [v for v in values if v in intervals]
        for position, first in enumerate(live):
            for second in live[position + 1 :]:
                a, b = intervals[first], intervals[second]
                if a.start <= b.end and b.start <= a.end:
                    values[second] = values[first]
                    allocation = _clone(
                        fu_program.allocation, value_registers=values
                    )
                    return _with_allocation(
                        ctx, fu_index, allocation, keep_image=True
                    )
    return None


@_mutation(
    "reg-window-overflow",
    "regalloc",
    "REG002",
    "inflate the rotating-register demand past the window capacity",
)
def _reg_window_overflow(ctx: VerifyContext) -> Optional[VerifyContext]:
    variant = ctx.overlay.variant
    if ctx.program is None or variant.rf_frame_capacity >= variant.rf_depth:
        # The [14] baseline's window IS the register file: demand beyond it
        # necessarily trips the address-range check instead.
        return None
    fu_program = ctx.program.fu_programs[0]
    values = dict(fu_program.allocation.value_registers)
    ghost = 1_000_000  # value ids far outside any DFG
    for register in range(variant.rf_depth):
        values.setdefault(ghost + register, register)
    allocation = _clone(fu_program.allocation, value_registers=values)
    return _with_allocation(ctx, 0, allocation, keep_image=True)


@_mutation(
    "reg-const-collision",
    "regalloc",
    "REG004",
    "pin a constant onto a register a rotating value owns",
)
def _reg_const_collision(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.program is None:
        return None
    for fu_index, fu_program in enumerate(ctx.program.fu_programs):
        allocation = fu_program.allocation
        if not allocation.constant_registers or not allocation.value_registers:
            continue
        constants = dict(allocation.constant_registers)
        const_id = next(iter(constants))
        constants[const_id] = next(iter(allocation.value_registers.values()))
        mutated = _clone(allocation, constant_registers=constants)
        # The image's constant section describes the clean pinning.
        return _with_allocation(ctx, fu_index, mutated, keep_image=False)
    return None


@_mutation(
    "reg-register-dropped",
    "regalloc",
    "REG005",
    "unassign the register of a value the stage still reads",
)
def _reg_register_dropped(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.program is None:
        return None
    for fu_index, fu_program in enumerate(ctx.program.fu_programs):
        values = dict(fu_program.allocation.value_registers)
        for slot in ctx.schedule.stages[fu_program.stage].slots:
            needed = (
                slot.operands
                if slot.kind is SlotKind.COMPUTE
                else ((slot.value_id,) if slot.kind is SlotKind.PASS else ())
            )
            for operand in needed:
                if operand in values:
                    values.pop(operand)
                    allocation = _clone(
                        fu_program.allocation, value_registers=values
                    )
                    return _with_allocation(
                        ctx, fu_index, allocation, keep_image=True
                    )
    return None


# ---------------------------------------------------------------------------
# binary defects
# ---------------------------------------------------------------------------
@_mutation(
    "bin-bitflip",
    "binary",
    "BIN001",
    "flip an opcode bit of one configuration-image word",
)
def _bin_bitflip(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.configuration is None:
        return None
    image = copy.deepcopy(ctx.configuration)
    for words in image.fu_instruction_words:
        if words:
            words[0] ^= 1 << 3  # an opcode-field bit
            return _clone(ctx, configuration=image)
    return None


@_mutation(
    "bin-imem-overflow",
    "binary",
    "BIN002",
    "replicate a FU's instructions past the instruction-memory depth",
)
def _bin_imem_overflow(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.program is None:
        return None
    depth = ctx.overlay.variant.instruction_memory_depth
    for fu_index, fu_program in enumerate(ctx.program.fu_programs):
        if not fu_program.instructions:
            continue
        copies = depth // len(fu_program.instructions) + 2
        programs = list(ctx.program.fu_programs)
        programs[fu_index] = _clone(
            fu_program, instructions=list(fu_program.instructions) * copies
        )
        return _clone(
            ctx,
            program=_clone(ctx.program, fu_programs=programs),
            configuration=None,
        )
    return None


@_mutation(
    "bin-fu-dropped",
    "binary",
    "BIN006",
    "drop the last FU section from the configuration image",
)
def _bin_fu_dropped(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.configuration is None or ctx.configuration.num_fus < 2:
        return None
    image = copy.deepcopy(ctx.configuration)
    image.fu_instruction_words.pop()
    image.fu_constants.pop()
    return _clone(ctx, configuration=image)


@_mutation(
    "bin-wb-bit",
    "binary",
    "BIN004",
    "set the write-back bit on a variant without a write-back path",
)
def _bin_wb_bit(ctx: VerifyContext) -> Optional[VerifyContext]:
    from ..overlay.isa import InstructionKind, decode_instruction

    if ctx.configuration is None or ctx.overlay.variant.write_back:
        return None
    image = copy.deepcopy(ctx.configuration)
    for words in image.fu_instruction_words:
        for index, word in enumerate(words):
            if decode_instruction(word).kind in (
                InstructionKind.EXEC,
                InstructionKind.PASS,
            ):
                words[index] = word | (1 << 22)  # the write-back bit
                return _clone(ctx, configuration=image)
    return None


# ---------------------------------------------------------------------------
# spec defects
# ---------------------------------------------------------------------------
@_mutation(
    "spec-variant-mismatch",
    "spec",
    "SPEC001",
    "claim a different FU variant than the artifact was built for",
)
def _spec_variant_mismatch(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.spec is None:
        return None
    imposter = "v1" if ctx.spec.variant != "v1" else "v3"
    return _clone(ctx, spec=_clone(ctx.spec, variant=imposter))


@_mutation(
    "spec-key-mismatch",
    "spec",
    "SPEC002",
    "file the artifact under a cache key naming another kernel",
)
def _spec_key_mismatch(ctx: VerifyContext) -> Optional[VerifyContext]:
    if ctx.key is None:
        return None
    return _clone(ctx, key=_clone(ctx.key, kernel_name=ctx.key.kernel_name + "-imposter"))


MUTATIONS.seal()
