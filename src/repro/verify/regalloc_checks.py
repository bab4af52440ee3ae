"""Register-allocation soundness checks (family ``REG``).

Independent of the regalloc equivalence oracle
(``allocate_registers_reference``): this pass re-derives each stage's live
intervals from the :class:`StageSchedule` inside the emitted
:class:`~repro.program.codegen.FUProgram` and proves the allocation sound on
its own terms — no two simultaneously-live values share a register, every
value a slot reads actually has a register, and the rotating-window /
physical register-file capacities of the FU variant are respected.

Codes
-----
``REG001``  two overlapping live intervals share a register
``REG002``  rotating registers exceed the per-iteration window capacity
``REG003``  total register demand (double buffering + constants) exceeds
            the physical register-file depth
``REG004``  a constant register collides with a value register
``REG005``  a slot operand (or emitted value) has no register assigned
``REG006``  a register address is outside the register file
"""

from __future__ import annotations

from typing import List

from ..program.regalloc import compute_live_intervals
from ..schedule.types import SlotKind
from .diagnostics import Diagnostic, Severity

# Bound once: ``SlotKind.X`` goes through ``EnumType.__getattr__`` per lookup.
_COMPUTE = SlotKind.COMPUTE
_PASS_SLOT = SlotKind.PASS

_PASS = "regalloc"


def _error(code: str, message: str, **location) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        pass_name=_PASS,
        **location,
    )


def run(ctx) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    variant = ctx.overlay.variant
    stages = ctx.schedule.stages
    for fu_program in ctx.program.fu_programs:
        if not 0 <= fu_program.stage < len(stages):
            continue  # the schedule pass reports shape mismatches
        out.extend(_check_stage(fu_program, stages[fu_program.stage], variant))
    return out


def _check_stage(fu_program, stage, variant) -> List[Diagnostic]:
    allocation = fu_program.allocation
    index = fu_program.stage
    values = dict(allocation.value_registers)
    constants = dict(allocation.constant_registers)
    out: List[Diagnostic] = []

    for value, register in sorted({**values, **constants}.items()):
        if not 0 <= register < variant.rf_depth:
            out.append(
                _error(
                    "REG006",
                    f"value {value} in stage {index} is assigned register "
                    f"{register}, outside the {variant.rf_depth}-entry file",
                    stage=index,
                    node=value,
                )
            )

    # Overlap freedom, re-derived from the stage itself.
    intervals = {i.value_id: i for i in compute_live_intervals(stage)}
    live = [i for i in intervals.values() if i.value_id in values]
    for position, interval in enumerate(live):
        for other in live[position + 1 :]:
            if values[interval.value_id] != values[other.value_id]:
                continue
            if interval.start <= other.end and other.start <= interval.end:
                out.append(
                    _error(
                        "REG001",
                        f"values {interval.value_id} and {other.value_id} in "
                        f"stage {index} share register "
                        f"{values[interval.value_id]} while both are live",
                        stage=index,
                        node=other.value_id,
                    )
                )

    rotating = len(set(values.values()))
    window = variant.rf_frame_capacity
    if rotating > window:
        out.append(
            _error(
                "REG002",
                f"stage {index} uses {rotating} rotating registers per "
                f"iteration but the {variant.paper_label} window holds {window}",
                stage=index,
            )
        )
    total = rotating + len(constants)
    if variant.overlap_load_execute:
        total = 2 * rotating + len(constants)  # double-buffered window
    if total > variant.rf_depth:
        out.append(
            _error(
                "REG003",
                f"stage {index} needs {total} register entries (double "
                f"buffering + {len(constants)} constants) but the register "
                f"file has {variant.rf_depth}",
                stage=index,
            )
        )

    collisions = set(constants.values()) & set(values.values())
    for register in sorted(collisions):
        out.append(
            _error(
                "REG004",
                f"register {register} in stage {index} is assigned to both a "
                "constant and a rotating value",
                stage=index,
            )
        )

    # Every value a slot reads or produces must be addressable.
    for slot_index, slot in enumerate(stage.slots):
        if slot.kind is _COMPUTE:
            needed = list(slot.operands)
            if slot.write_back and slot.value_id is not None:
                needed.append(slot.value_id)
        elif slot.kind is _PASS_SLOT:
            needed = [slot.value_id] if slot.value_id is not None else []
        else:
            continue
        for value in needed:
            if value not in values and value not in constants:
                out.append(
                    _error(
                        "REG005",
                        f"slot {slot_index} of stage {index} uses value "
                        f"{value}, which has no register assigned",
                        stage=index,
                        slot=slot_index,
                        node=value,
                    )
                )
    return out
