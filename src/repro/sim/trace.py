"""Simulation trace recording and schedule-table rendering (paper Table II).

The trace recorder captures one event per load and per issued instruction,
with the cycle, the FU, the data-block index and a human-readable
description.  :func:`render_schedule_table` turns the events into the
cycle-by-cycle table of the paper's Table II: one row per cycle, one column
per FU, showing the load activity and the issued instruction (both can occur
in the same cycle on the rotating-register-file FUs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dfg.graph import DFG
from ..schedule.types import ScheduledOp, SlotKind


@dataclass(frozen=True)
class TraceEvent:
    """One load or instruction-issue event."""

    cycle: int
    stage: int
    block: int
    kind: str           # "load" or "exec"
    description: str
    value_id: Optional[int] = None
    result: Optional[int] = None


@dataclass
class TraceRecorder:
    """Collects :class:`TraceEvent` objects during a simulation run."""

    dfg: Optional[DFG] = None
    events: List[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    # ------------------------------------------------------------------
    def record_load(self, cycle: int, stage: int, block: int, value_id: int) -> None:
        if not self.enabled:
            return
        self.events.append(
            TraceEvent(
                cycle=cycle,
                stage=stage,
                block=block,
                kind="load",
                description=f"Load {self._label(value_id)}",
                value_id=value_id,
            )
        )

    def record_exec(
        self,
        cycle: int,
        stage: int,
        block: int,
        slot: ScheduledOp,
        result: Optional[int],
    ) -> None:
        if not self.enabled:
            return
        if slot.kind is SlotKind.NOP:
            description = "NOP"
        elif slot.kind is SlotKind.PASS:
            description = f"PASS {self._label(slot.value_id)}"
        else:
            operands = " ".join(self._label(v) for v in slot.operands)
            description = f"{slot.opcode.name} ({operands})"
        self.events.append(
            TraceEvent(
                cycle=cycle,
                stage=stage,
                block=block,
                kind="exec",
                description=description,
                value_id=slot.value_id,
                result=result,
            )
        )

    # ------------------------------------------------------------------
    def _label(self, value_id: Optional[int]) -> str:
        if value_id is None:
            return "-"
        if self.dfg is not None and value_id in self.dfg:
            name = self.dfg.node(value_id).name
            return name.split("_N")[0] if "_N" in name else name
        return f"N{value_id}"

    def events_for_stage(self, stage: int) -> List[TraceEvent]:
        return [e for e in self.events if e.stage == stage]


def render_schedule_table(
    recorder: TraceRecorder,
    num_stages: int,
    first_cycle: int = 0,
    num_cycles: int = 32,
    column_width: int = 24,
) -> str:
    """Render the first ``num_cycles`` cycles as a Table II style text table."""
    header_cells = ["cyc"] + [f"FU{k}" for k in range(num_stages)]
    widths = [5] + [column_width] * num_stages
    lines = [_format_row(header_cells, widths)]
    lines.append("-" * (sum(widths) + num_stages))

    by_cycle_stage: Dict[Tuple[int, int], List[TraceEvent]] = {}
    for event in recorder.events:
        by_cycle_stage.setdefault((event.cycle, event.stage), []).append(event)

    for cycle in range(first_cycle, first_cycle + num_cycles):
        cells = [str(cycle + 1)]  # the paper's Table II is 1-based
        for stage in range(num_stages):
            events = by_cycle_stage.get((cycle, stage), [])
            loads = [e.description for e in events if e.kind == "load"]
            execs = [e.description for e in events if e.kind == "exec"]
            parts = loads + execs
            cells.append(" | ".join(parts))
        lines.append(_format_row(cells, widths))
    return "\n".join(lines)


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return " ".join(str(cell)[: width].ljust(width) for cell, width in zip(cells, widths))


def per_block_issue_cycles(recorder: TraceRecorder, stage: int) -> Dict[int, List[int]]:
    """Issue cycles of every block's instructions on one stage.

    Used by the timing tests to confirm the steady-state spacing between
    blocks equals the analytic II.
    """
    cycles: Dict[int, List[int]] = {}
    for event in recorder.events_for_stage(stage):
        if event.kind != "exec":
            continue
        cycles.setdefault(event.block, []).append(event.cycle)
    return cycles
