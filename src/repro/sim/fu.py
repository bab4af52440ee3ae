"""Cycle-accurate model of one time-multiplexed functional unit.

Each FU runs two cooperating engines, mirroring the micro-architecture of
Fig. 3:

* the **load engine** pulls one word per cycle from the upstream FIFO and
  writes it into the register file.  On the rotating-RF variants (V1+) it can
  run one data block ahead of execution (double buffering) and needs one idle
  cycle between blocks (the ``+1`` of Eq. 2); on the [14] baseline it shares
  the single register-file port with execution, so loads and instructions
  serialise (Eq. 1).
* the **execution engine** issues the per-iteration instruction slots in
  order, one per cycle, reading operands from the register file, pushing
  results into the downstream FIFO after the ALU pipeline latency, and (on
  V3-V5) writing results back into the register file after the IWP.  Two idle
  cycles separate consecutive blocks (the ``+2`` pipeline flush).

The engines stall on real hazards only: missing operands (a write-back that
has not landed yet, or a load that has not arrived), a full downstream FIFO,
or the block gaps above.  A correctly NOP-padded schedule therefore runs
without execution stalls, which is one of the properties the test suite
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dfg.graph import DFG
from ..errors import SimulationError
from ..overlay.fu import FUVariant
from ..schedule.types import ScheduledOp, SlotKind, StageSchedule
from .alu import alu_execute
from .fifo import StreamFIFO, Token
from .rf import RegisterFileModel
from .trace import TraceRecorder


@dataclass
class FUStats:
    """Per-FU statistics accumulated during simulation."""

    loads_issued: int = 0
    instructions_issued: int = 0
    nops_issued: int = 0
    exec_stall_cycles: int = 0
    load_stall_cycles: int = 0
    backpressure_stall_cycles: int = 0


class FUSimulator:
    """Simulates one FU stage executing its per-iteration program."""

    def __init__(
        self,
        stage: StageSchedule,
        variant: FUVariant,
        dfg: DFG,
        in_fifo: StreamFIFO,
        out_fifo: Optional[StreamFIFO],
        num_blocks: int,
        constants: Optional[Dict[int, int]] = None,
        recorder: Optional[TraceRecorder] = None,
    ):
        self.stage = stage
        self.variant = variant
        self.dfg = dfg
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo
        self.num_blocks = num_blocks
        self.recorder = recorder
        self.stats = FUStats()

        self.rf = RegisterFileModel(
            name=f"FU{stage.stage}.rf",
            physical_depth=variant.rf_depth,
            frame_capacity=variant.rf_frame_capacity,
        )
        constants = constants or {}
        for const_id, const_value in constants.items():
            self.rf.preload_constant(const_id, const_value)

        # How many slot operands of this stage read each value (per block).
        self._read_counts: Dict[int, int] = {}
        for slot in stage.slots:
            for operand in slot.operands:
                if operand in constants:
                    continue
                self._read_counts[operand] = self._read_counts.get(operand, 0) + 1

        # Load engine state.
        self._load_block = 0
        self._load_index = 0
        self._next_load_cycle = 0
        self._block_load_barrier = 0  # earliest cycle loads of the current block may run
        self._load_complete_cycle: Dict[int, int] = {}

        # Execution engine state.
        self._exec_block = 0
        self._slot_index = 0
        self._next_exec_cycle = 0

        # In-flight results.
        self._pending_out: List[Tuple[int, Token]] = []
        self._pending_wb: List[Tuple[int, int, int, int]] = []

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------
    def collect_outputs(self, cycle: int) -> List[Token]:
        """Results whose ALU latency has elapsed by ``cycle`` (in issue order)."""
        ready: List[Token] = []
        remaining: List[Tuple[int, Token]] = []
        for ready_cycle, token in self._pending_out:
            if ready_cycle <= cycle:
                ready.append(token)
            else:
                remaining.append((ready_cycle, token))
        self._pending_out = remaining
        return ready

    def tick(self, cycle: int) -> None:
        """Advance the FU by one clock cycle."""
        self._land_write_backs(cycle)
        load_used_port = self._tick_load(cycle)
        exec_may_run = self.variant.overlap_load_execute or not load_used_port
        if exec_may_run:
            self._tick_exec(cycle)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _land_write_backs(self, cycle: int) -> None:
        remaining: List[Tuple[int, int, int, int]] = []
        for ready_cycle, block, value_id, value in self._pending_wb:
            if ready_cycle <= cycle:
                self.rf.write(block, value_id, value, reads=self._read_counts.get(value_id, 0))
            else:
                remaining.append((ready_cycle, block, value_id, value))
        self._pending_wb = remaining

    def _loads_done(self) -> bool:
        return self._load_block >= self.num_blocks or not self.stage.load_order

    def _load_allowed(self, cycle: int) -> bool:
        if self._loads_done() or self._load_block >= self.num_blocks:
            return False
        if cycle < self._next_load_cycle or cycle < self._block_load_barrier:
            return False
        lookahead = 1 if self.variant.overlap_load_execute else 0
        return self._load_block <= self._exec_block + lookahead

    def _tick_load(self, cycle: int) -> bool:
        """Run the load engine; returns True if it used the shared port."""
        if not self.stage.load_order:
            self._load_block = self.num_blocks
            return False
        if not self._load_allowed(cycle):
            return False
        token = self.in_fifo.peek()
        if token is None:
            self.stats.load_stall_cycles += 1
            return False
        block, value_id, value = token
        expected = self.stage.load_order[self._load_index]
        if block != self._load_block or value_id != expected:
            raise SimulationError(
                f"FU{self.stage.stage}: expected value N{expected} of block "
                f"{self._load_block} on the input FIFO, found N{value_id} of "
                f"block {block}"
            )
        self.in_fifo.pop()
        self.rf.write(block, value_id, value, reads=self._read_counts.get(value_id, 0))
        self.stats.loads_issued += 1
        if self.recorder is not None:
            self.recorder.record_load(cycle, self.stage.stage, block, value_id)
        self._load_index += 1
        self._next_load_cycle = cycle + 1
        if self._load_index >= len(self.stage.load_order):
            self._load_complete_cycle[self._load_block] = cycle
            self._load_index = 0
            self._load_block += 1
            self._next_load_cycle = cycle + 1 + self.variant.load_block_gap
        return True

    def _operands_ready(self, slot: ScheduledOp, block: int) -> bool:
        for operand in slot.operands:
            if not self.rf.has(block, operand):
                return False
        return True

    def _downstream_full(self, slot: ScheduledOp) -> bool:
        if not slot.emits or self.out_fifo is None:
            return False
        in_flight = len(self._pending_out)
        return self.out_fifo.capacity > 0 and (
            len(self.out_fifo) + in_flight >= self.out_fifo.capacity
        )

    def _tick_exec(self, cycle: int) -> None:
        if self._exec_block >= self.num_blocks or not self.stage.slots:
            if not self.stage.slots:
                self._exec_block = self.num_blocks
            return
        if cycle < self._next_exec_cycle:
            return
        if self.stage.load_order and (
            self._load_block <= self._exec_block
            or cycle <= self._load_complete_cycle.get(self._exec_block, -1)
        ):
            # The rotating register file switches frames per data block: the
            # block's instructions only start the cycle after its last load
            # (paper Table II — FU0's first SUB issues after the fifth load).
            self.stats.exec_stall_cycles += 1
            return
        slot = self.stage.slots[self._slot_index]
        block = self._exec_block

        if slot.kind is SlotKind.NOP:
            self.stats.nops_issued += 1
            self.stats.instructions_issued += 1
            if self.recorder is not None:
                self.recorder.record_exec(cycle, self.stage.stage, block, slot, None)
            self._advance_slot(cycle)
            return

        if not self._operands_ready(slot, block):
            self.stats.exec_stall_cycles += 1
            return
        if self._downstream_full(slot):
            self.stats.backpressure_stall_cycles += 1
            return

        operand_values = [self.rf.consume(block, o) for o in slot.operands]
        result = alu_execute(slot.opcode, operand_values)
        self.stats.instructions_issued += 1
        if self.recorder is not None:
            self.recorder.record_exec(cycle, self.stage.stage, block, slot, result)
        if slot.emits and slot.value_id is not None:
            self._pending_out.append(
                (cycle + self.variant.alu_pipeline_depth, (block, slot.value_id, result))
            )
        if slot.write_back and slot.value_id is not None:
            latency = self.variant.iwp or self.variant.alu_pipeline_depth
            self._pending_wb.append((cycle + latency, block, slot.value_id, result))
        self._advance_slot(cycle)

    def _advance_slot(self, cycle: int) -> None:
        self._slot_index += 1
        self._next_exec_cycle = cycle + 1
        if self._slot_index >= len(self.stage.slots):
            self._slot_index = 0
            self._exec_block += 1
            self._next_exec_cycle = cycle + 1 + self.variant.exec_block_gap
            if not self.variant.overlap_load_execute:
                # The [14] FU flushes its pipeline before the next block's
                # loads may reuse the register file.
                self._block_load_barrier = cycle + 1 + self.variant.exec_block_gap
