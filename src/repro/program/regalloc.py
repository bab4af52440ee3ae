"""Register allocation for the rotating register file.

Each FU keeps three kinds of values in its RAM32M register file:

* the values **loaded** from the upstream FIFO each iteration (written by the
  stream write port at the rotating offset),
* the **constants** the kernel reads (preloaded once at configuration time),
* the results **written back** by the FU's own instructions (V3-V5 only).

The rotating offset counter double-buffers the per-iteration values, so one
iteration may own at most half of the 32 physical entries on the overlapped
variants ([14] serialises loads and execution and can use the full depth).
Constants are allocated at the top of the register file, outside the rotating
window, matching how the hardware would pin them.

Linear-scan allocation
----------------------
The allocator is a classic linear scan over live intervals
(:class:`LiveInterval`), computed in one pass over the stage's load order and
instruction slots and consumed in start order — O(V log V) per stage, where V
is the number of values the stage touches.  One hardware constraint shapes
the scan: register addresses are **configuration-time constants** (they are
baked into the stream load map and the instruction words), so a register
cannot be recycled mid-iteration even after its interval expires — every
interval gets a fresh register.  This is exactly the behaviour
of the original arrival-order allocator, which the test suite keeps as an
oracle (:func:`allocate_registers_reference`): both allocators must produce
identical assignments on every kernel of the library.

Allocation is cheap (the per-stage footprints of real kernels are small) but
the capacity check matters: it is the point where "this kernel does not fit
this FU" becomes a clean :class:`RegisterAllocationError` instead of a silent
corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dfg.graph import DFG
from ..errors import RegisterAllocationError
from ..overlay.fu import FUVariant
from ..schedule.types import SlotKind, StageSchedule

# Bound once: ``SlotKind.X`` goes through ``EnumType.__getattr__`` per lookup.
_COMPUTE = SlotKind.COMPUTE


@dataclass
class RegisterAllocation:
    """Register assignment for one FU stage."""

    stage: int
    value_registers: Dict[int, int] = field(default_factory=dict)
    constant_registers: Dict[int, int] = field(default_factory=dict)

    def register_of(self, value_id: int) -> int:
        """Physical register of a value; raises if the value has none."""
        if value_id in self.value_registers:
            return self.value_registers[value_id]
        if value_id in self.constant_registers:
            return self.constant_registers[value_id]
        raise RegisterAllocationError(
            f"stage {self.stage}: value N{value_id} has no register"
        )


@dataclass(frozen=True)
class LiveInterval:
    """Live range of one value inside a stage's per-iteration program.

    Positions index the stage's unified timeline: the ``i``-th stream load
    occupies position ``i`` and instruction slot ``j`` occupies position
    ``num_loads + j``.  ``start`` is the definition point (load or
    write-back), ``end`` the last read (``start`` for values that are only
    forwarded downstream by the load/emit machinery, never read locally).
    """

    value_id: int
    start: int
    end: int
    writes_back: bool = False


def compute_live_intervals(stage: StageSchedule) -> List[LiveInterval]:
    """Compute the live intervals of every value the stage defines.

    One pass over the load order and the slots; the result is ordered by
    definition position (loads in arrival order, then write-back results in
    slot order), which is already the linear scan's processing order.
    """
    num_loads = len(stage.load_order)
    last_use: Dict[int, int] = {}
    for index, slot in enumerate(stage.slots):
        position = num_loads + index
        for operand in slot.operands:
            last_use[operand] = position

    intervals: List[LiveInterval] = []
    defined = set()
    for position, value_id in enumerate(stage.load_order):
        intervals.append(
            LiveInterval(
                value_id=value_id,
                start=position,
                end=max(last_use.get(value_id, position), position),
            )
        )
        defined.add(value_id)
    for index, slot in enumerate(stage.slots):
        if slot.kind is _COMPUTE and slot.write_back and slot.value_id is not None:
            if slot.value_id in defined:
                continue
            position = num_loads + index
            intervals.append(
                LiveInterval(
                    value_id=slot.value_id,
                    start=position,
                    end=max(last_use.get(slot.value_id, position), position),
                    writes_back=True,
                )
            )
            defined.add(slot.value_id)
    return intervals


def _collect_constants(stage: StageSchedule, dfg: DFG) -> List[int]:
    """Constant operands of the stage in first-use order (one pass)."""
    constants: List[int] = []
    seen = set()
    for slot in stage.slots:
        for operand in slot.operands:
            if operand in seen or operand not in dfg:
                continue
            if dfg.node(operand).is_const:
                constants.append(operand)
            seen.add(operand)
    return constants


def _check_capacity(
    stage: StageSchedule,
    variant: FUVariant,
    rotating: int,
    num_constants: int,
) -> None:
    """Enforce the rotating-window and physical register-file capacities."""
    window = variant.rf_frame_capacity
    if rotating > window:
        raise RegisterAllocationError(
            f"stage {stage.stage} needs {rotating} rotating register entries per "
            f"iteration but the {variant.paper_label} FU only offers {window}"
        )
    total = rotating + num_constants
    if variant.overlap_load_execute:
        total = 2 * rotating + num_constants  # double-buffered window
    if total > variant.rf_depth:
        raise RegisterAllocationError(
            f"stage {stage.stage} needs {total} register entries (including "
            f"double buffering and {num_constants} constants) but the register "
            f"file has {variant.rf_depth}"
        )


def allocate_registers(
    stage: StageSchedule,
    variant: FUVariant,
    dfg: DFG,
) -> RegisterAllocation:
    """Allocate register-file addresses for one stage (linear scan).

    The scan walks the stage's live intervals in start order and hands each
    value the lowest fresh register: loaded values get consecutive addresses
    in arrival order (that is how the stream write port fills the rotating
    window), written-back results follow.  Registers are never recycled
    within an iteration — addresses are configuration-time constants, see the
    module docstring — so the assignment is provably identical to the
    original arrival-order allocator (:func:`allocate_registers_reference`).
    Constants are pinned at the top of the register file, outside the
    rotating window.

    Raises
    ------
    RegisterAllocationError
        If the per-iteration footprint exceeds the rotating window, the total
        footprint exceeds the physical register file, or a slot reads a value
        the stage neither loads, writes back nor preloads as a constant.
    """
    allocation = RegisterAllocation(stage=stage.stage)
    intervals = compute_live_intervals(stage)

    next_register = 0
    for interval in sorted(intervals, key=lambda iv: iv.start):
        allocation.value_registers[interval.value_id] = next_register
        next_register += 1

    constants = _collect_constants(stage, dfg)
    _check_capacity(stage, variant, len(allocation.value_registers), len(constants))

    # Constants live at the top of the register file, outside the window.
    for index, const_id in enumerate(constants):
        allocation.constant_registers[const_id] = variant.rf_depth - 1 - index

    # Sanity: every operand of every slot must now have a register.
    for slot in stage.slots:
        for operand in slot.operands:
            allocation.register_of(operand)
    return allocation


def allocate_registers_reference(
    stage: StageSchedule,
    variant: FUVariant,
    dfg: DFG,
) -> RegisterAllocation:
    """The original arrival-order allocator, kept as the equivalence oracle.

    Walks the load order and the slots directly and assigns registers
    sequentially.  ``tests/test_regalloc_linear.py`` asserts that
    :func:`allocate_registers` (the linear scan) produces identical
    ``value_registers`` and ``constant_registers`` on every stage of every
    library kernel across all FU variants.
    """
    allocation = RegisterAllocation(stage=stage.stage)
    next_register = 0

    for value_id in stage.load_order:
        allocation.value_registers[value_id] = next_register
        next_register += 1

    for slot in stage.slots:
        if slot.kind is _COMPUTE and slot.write_back and slot.value_id is not None:
            if slot.value_id not in allocation.value_registers:
                allocation.value_registers[slot.value_id] = next_register
                next_register += 1

    constants = _collect_constants(stage, dfg)
    _check_capacity(stage, variant, len(allocation.value_registers), len(constants))

    for index, const_id in enumerate(constants):
        allocation.constant_registers[const_id] = variant.rf_depth - 1 - index

    for slot in stage.slots:
        for operand in slot.operands:
            allocation.register_of(operand)
    return allocation
