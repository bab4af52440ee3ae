"""Schedule data structures shared by the schedulers, codegen and simulator.

A schedule describes, for every FU (stage) of a linear overlay:

* the **load order** — which values arrive from the upstream FIFO each
  iteration, in arrival order (this equals the emission order of the previous
  stage, or the primary-input order for stage 0);
* the **instruction slots** — the ordered ALU instruction stream the FU
  executes each iteration: compute operations, pass-throughs of values needed
  further downstream, and NOPs inserted by the fixed-depth scheduler to
  satisfy the internal write-back path (IWP) spacing.

These are *per-iteration* (steady-state) descriptions; the simulator replays
them once per data block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dfg.graph import DFG
from ..dfg.opcodes import OpCode
from ..errors import ScheduleError
from ..overlay.architecture import LinearOverlay


class SlotKind(enum.Enum):
    """What an instruction slot does."""

    COMPUTE = "compute"
    PASS = "pass"
    NOP = "nop"

    # Singletons compared by identity: hash by identity too (the C slot, not
    # ``Enum.__hash__``'s Python code).
    __hash__ = object.__hash__


# Members bound once for the per-slot checks below (``SlotKind.X`` goes
# through ``EnumType.__getattr__`` on every lookup).
_PASS = SlotKind.PASS
_NOP = SlotKind.NOP
_PASS_OPCODE = OpCode.PASS
_NOP_OPCODE = OpCode.NOP


@dataclass(frozen=True)
class ScheduledOp:
    """One instruction slot of one FU's per-iteration program.

    Attributes
    ----------
    kind:
        COMPUTE (a DFG operation), PASS (forward a transiting value) or NOP.
    value_id:
        The DFG node id of the value this slot produces (COMPUTE) or carries
        (PASS); ``None`` for NOPs.
    opcode:
        ALU opcode; :attr:`OpCode.PASS` for passes, :attr:`OpCode.NOP` for NOPs.
    operands:
        DFG node ids read from the register file (empty for NOPs).
    write_back:
        Result is written back into this FU's register file (only meaningful
        on write-back capable FU variants; set when a consumer lives in the
        same stage).
    forward:
        Result is forwarded to the next FU / output FIFO.  ``False``
        corresponds to the paper's NDF (no data forward) flag being set.
    """

    kind: SlotKind
    value_id: Optional[int] = None
    opcode: OpCode = OpCode.NOP
    operands: Tuple[int, ...] = ()
    write_back: bool = False
    forward: bool = True

    @classmethod
    def nop(cls) -> "ScheduledOp":
        """An idle slot (IWP spacing on fixed-depth overlays)."""
        return cls(kind=_NOP, opcode=_NOP_OPCODE, forward=False)

    @classmethod
    def passthrough(cls, value_id: int) -> "ScheduledOp":
        """A slot that forwards a transiting value to the next stage."""
        return cls(
            kind=_PASS,
            value_id=value_id,
            opcode=_PASS_OPCODE,
            operands=(value_id,),
        )

    @property
    def is_nop(self) -> bool:
        """Whether this slot does nothing (no read, no emit)."""
        return self.kind is _NOP

    @property
    def emits(self) -> bool:
        """Whether this slot pushes a value to the downstream FIFO."""
        return self.kind is not _NOP and self.forward

    def describe(self, dfg: Optional[DFG] = None) -> str:
        """Human-readable rendering (used in traces / the Table II harness)."""
        if self.kind is SlotKind.NOP:
            return "NOP"
        if self.kind is SlotKind.PASS:
            label = _value_label(dfg, self.value_id)
            return f"PASS {label}"
        operand_labels = " ".join(_value_label(dfg, v) for v in self.operands)
        suffix = ""
        if self.write_back:
            suffix += " [wb]"
        if not self.forward:
            suffix += " [ndf]"
        return f"{self.opcode.name} ({operand_labels}){suffix}"


def _value_label(dfg: Optional[DFG], value_id: Optional[int]) -> str:
    if value_id is None:
        return "-"
    if dfg is not None and value_id in dfg:
        return dfg.node(value_id).name
    return f"N{value_id}"


@dataclass
class StageSchedule:
    """Per-iteration program of one FU (stage) of the overlay."""

    stage: int
    load_order: List[int] = field(default_factory=list)
    slots: List[ScheduledOp] = field(default_factory=list)

    # -- counts used by the II models ---------------------------------------
    @property
    def num_loads(self) -> int:
        """Values arriving from the upstream FIFO each iteration."""
        return len(self.load_order)

    @property
    def num_instructions(self) -> int:
        """All instruction slots, NOPs included."""
        return len(self.slots)

    @property
    def num_nops(self) -> int:
        """Idle slots inserted for IWP spacing."""
        return sum(1 for s in self.slots if s.kind is _NOP)

    @property
    def emission_order(self) -> List[int]:
        """Values pushed downstream each iteration, in push order."""
        return [s.value_id for s in self.slots if s.emits and s.value_id is not None]


@dataclass
class OverlaySchedule:
    """A complete mapping of one kernel onto one overlay.

    ``scheduler`` records the *algorithm* that produced the schedule
    (``"asap"``, ``"greedy"`` or ``"modulo"``) — not the registry strategy
    name it was requested through.  The two differ deliberately: the
    ``auto`` and ``clustered`` strategies both report ``"asap"`` when the
    shallow-kernel fallback ran and ``"greedy"`` when real clustering did,
    which is information the strategy name alone cannot carry.  The
    requested strategy lives on the spec/result side
    (:attr:`repro.specs.OverlaySpec.scheduler`,
    :attr:`repro.engine.sweep.SweepResult.scheduler`).
    """

    dfg: DFG
    overlay: LinearOverlay
    assignment: Dict[int, int]
    stages: List[StageSchedule]
    scheduler: str = "asap"

    def __post_init__(self) -> None:
        if len(self.stages) != self.overlay.depth:
            raise ScheduleError(
                f"schedule has {len(self.stages)} stages but the overlay has "
                f"depth {self.overlay.depth}"
            )

    # ------------------------------------------------------------------
    @property
    def variant(self):
        """The overlay's FU variant (Table I)."""
        return self.overlay.variant

    @property
    def depth(self) -> int:
        """Number of FUs (stages) in the overlay."""
        return self.overlay.depth

    @property
    def kernel_name(self) -> str:
        """Name of the scheduled kernel (the DFG's name)."""
        return self.dfg.name

    @property
    def total_instruction_slots(self) -> int:
        """All slots across all FUs (NOPs included) — configuration size."""
        return sum(stage.num_instructions for stage in self.stages)

    @property
    def total_loads(self) -> int:
        """FIFO loads per iteration summed over every stage."""
        return sum(stage.num_loads for stage in self.stages)

    @property
    def total_nops(self) -> int:
        """IWP NOPs summed over every stage."""
        return sum(stage.num_nops for stage in self.stages)

    def stage(self, index: int) -> StageSchedule:
        """The per-iteration program of FU ``index``."""
        return self.stages[index]

    def constants_used(self, stage_index: int) -> List[int]:
        """Constant node ids read by the given stage (preloaded into its RF)."""
        constants: List[int] = []
        seen = set()
        for slot in self.stages[stage_index].slots:
            for operand in slot.operands:
                if operand in seen or operand not in self.dfg:
                    continue
                if self.dfg.node(operand).is_const:
                    constants.append(operand)
                    seen.add(operand)
        return constants

