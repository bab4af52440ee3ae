"""Event-driven fast simulation engine.

:class:`~repro.sim.overlay.OverlaySimulator` executes every FU at the value
level, one cycle at a time, which makes large sweeps O(total cycles x depth)
with per-token dictionary churn.  This module reproduces *exactly* the same
measurements an order of magnitude faster, exploiting two observations:

1. **Timing is value-independent.**  Nothing in the FU control logic — load
   ordering, operand-ready checks, FIFO backpressure, block gaps — depends on
   the *numeric* value of a token, only on which ``(block, value id)`` pairs
   are where.  The engine therefore simulates tokens as bare identifiers and
   reconstructs the output stream functionally from the DFG (applying the
   same 32-bit wrap the datapath applies to values that transit PASS slots),
   so the produced ``outputs`` are bit-identical to the cycle simulator's.

2. **The pipeline reaches a periodic steady state.**  Once the cascade is
   full, the machine state repeats every initiation interval, shifted by a
   constant number of cycles and data blocks.  The engine fingerprints the
   control state each time a block completes; when a fingerprint recurs the
   run is provably periodic, and the engine analytically fast-forwards N
   whole periods — relabelling in-flight state, extrapolating completion
   times and adding N x the per-period statistics deltas — then finishes the
   drain cycle-accurately.  Stat counters, FIFO/RF high-water marks and
   completion cycles all match the cycle simulator exactly (see
   ``docs/engine.md`` for the correctness argument).

The steady-state detector canonicalises each FU's state relative to its
*own* oldest in-flight block and each channel's content by its occupancy
alone.  That fingerprint recurs as soon as every stage is *locally*
periodic — long before the FIFO-fill transient of a deep kernel on a
fixed-depth overlay ends — and the bounded-FIFO occupancy argument (see
``docs/engine.md``) makes the skip exact even while occupancies are still
ramping: the engine tracks, per channel and per detection window, the
minimum occupancy at consumer emptiness checks and the maximum pressure at
producer backpressure checks, and only jumps as many periods as keep every
threshold outcome unchanged.  The analytic warm-up bound
:func:`steady_state_warmup_bound` caps the fingerprint table and serves as
a cross-check oracle in the test suite.

Events that need sub-cycle ordering (ALU results whose pipeline latency
elapsed, internal write-backs reaching the register file) are kept in
per-FU ready queues that are drained in issue order, mirroring the delivery
phase of the cycle simulator; everything else advances in the same
upstream-to-downstream cycle-synchronous order.

Because timing is value-independent, a lane's timing is a function of what
the tick loop reads of the schedule and of the lane length alone, so one
process-wide memo keeps the lane timings runs measured, keyed by that
content (:meth:`FastSimulator._run_timing`, :func:`clear_timing_memo`): a
repeated stream shape skips the tick loop, also on another schedule object
of equal content, and still computes its outputs from the new stream.  This
tick loop is the one timing path of both production engines: the batched
engine (:mod:`repro.engine.batchsim`) swaps only the value plane, so the two
share every memo entry.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..kernels.reference import IdentityMemo, stream_evaluator
from ..schedule.types import OverlaySchedule, SlotKind
from ..sim.fu import FUStats
from ..sim.overlay import (
    SimulationResult,
    _steady_state_ii,
    check_input_blocks,
    default_max_cycles,
    merge_lane_results,
    split_lane_blocks,
)

#: Counter attribute names, in :class:`FUStats` field order.
_STAT_FIELDS = (
    "loads_issued",
    "instructions_issued",
    "nops_issued",
    "exec_stall_cycles",
    "load_stall_cycles",
    "backpressure_stall_cycles",
)

#: Sentinel for block pointers that are pinned at ``num_blocks`` from cycle 0
#: (stages with no loads / no slots) and must not be relabelled by the
#: steady-state shift.
_PINNED = -(10 ** 9)


class _FastRF:
    """Value-free register-file occupancy model.

    Mirrors :class:`repro.sim.rf.RegisterFileModel` exactly — same residency
    rules, same drop-writes-with-no-readers behaviour, same high-water
    accounting (updated on writes only) — but stores only remaining read
    counts, never values.
    """

    __slots__ = (
        "name",
        "physical_depth",
        "frame_capacity",
        "reads_left",
        "const_ids",
        "num_constants",
        "block_counts",
        "high_water",
        "per_block_high_water",
    )

    def __init__(self, name: str, physical_depth: int, frame_capacity: int, const_ids: Set[int]):
        self.name = name
        self.physical_depth = physical_depth
        self.frame_capacity = frame_capacity
        self.reads_left: Dict[Tuple[int, int], int] = {}
        self.const_ids = const_ids
        self.num_constants = len(const_ids)
        self.block_counts: Dict[int, int] = {}
        self.high_water = 0
        self.per_block_high_water = 0

    def write(self, block: int, value_id: int, reads: int) -> None:
        if reads <= 0:
            return
        key = (block, value_id)
        if key not in self.reads_left:
            self.block_counts[block] = self.block_counts.get(block, 0) + 1
        self.reads_left[key] = reads
        live = len(self.reads_left) + self.num_constants
        if live > self.high_water:
            self.high_water = live
        candidate = self.block_counts[block] + self.num_constants
        if candidate > self.per_block_high_water:
            self.per_block_high_water = candidate

    def has(self, block: int, value_id: int) -> bool:
        return (block, value_id) in self.reads_left or value_id in self.const_ids

    def consume(self, block: int, value_id: int) -> None:
        key = (block, value_id)
        if key not in self.reads_left:
            if value_id in self.const_ids:
                return
            raise SimulationError(
                f"register file {self.name!r}: value N{value_id} of block {block} "
                "is not resident"
            )
        remaining = self.reads_left[key] - 1
        if remaining <= 0:
            del self.reads_left[key]
            count = self.block_counts[block] - 1
            if count:
                self.block_counts[block] = count
            else:
                del self.block_counts[block]
        else:
            self.reads_left[key] = remaining

    def check_capacity(self) -> None:
        if (
            self.high_water > self.physical_depth
            or self.per_block_high_water > self.frame_capacity
        ):
            raise SimulationError(
                f"register file {self.name!r} overflows: peak {self.high_water} "
                f"entries (physical {self.physical_depth}), per-block peak "
                f"{self.per_block_high_water} (frame {self.frame_capacity})"
            )

    def shift(self, delta_blocks: int) -> None:
        self.reads_left = {
            (block + delta_blocks, vid): n for (block, vid), n in self.reads_left.items()
        }
        self.block_counts = {
            block + delta_blocks: n for block, n in self.block_counts.items()
        }


class _FastChannel:
    """Bounded inter-stage FIFO holding ``(block, value id)`` tokens.

    Besides the queue itself the channel keeps per-detection-window records
    of every occupancy value that actually steered control flow — the queue
    length at each consumer emptiness check and the queue+pending pressure at
    each producer backpressure check — which is what lets the occupancy
    detector prove that a fast-forward cannot flip any threshold outcome
    while the FIFO is still filling.
    """

    __slots__ = (
        "name",
        "capacity",
        "queue",
        "high_water",
        "win_min_empty",
        "win_max_press",
        "win_press_full",
        "win_push_max",
    )

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = capacity
        self.queue: Deque[Tuple[int, int]] = deque()
        self.high_water = 0
        self.reset_window()

    def reset_window(self) -> None:
        #: Minimum queue length seen at a consumer emptiness check (None if
        #: the consumer never looked), maximum queue+pending pressure seen at
        #: a producer backpressure check that *passed* (None if none did),
        #: whether any backpressure check found the channel full, and the
        #: maximum post-push occupancy — all since the last detection event.
        self.win_min_empty: Optional[int] = None
        self.win_max_press: Optional[int] = None
        self.win_press_full = False
        self.win_push_max = 0

    def push(self, token: Tuple[int, int]) -> None:
        if self.capacity > 0 and len(self.queue) >= self.capacity:
            raise SimulationError(
                f"FIFO {self.name!r} overflow (capacity {self.capacity}); "
                "the producer should have been back-pressured"
            )
        self.queue.append(token)
        occupancy = len(self.queue)
        if occupancy > self.high_water:
            self.high_water = occupancy
        if occupancy > self.win_push_max:
            self.win_push_max = occupancy


def _stage_program(schedule: OverlaySchedule, stage_index: int) -> Tuple[tuple, tuple, tuple]:
    """What the tick loop reads of one stage: its load order, each slot as
    the dispatch tuple ``(is_nop, operands, emits, value_id, write_back)``,
    and the constants preloaded into its register file."""
    stage = schedule.stage(stage_index)
    slots = tuple(
        (
            slot.kind is SlotKind.NOP,
            tuple(slot.operands),
            slot.emits,
            slot.value_id,
            slot.write_back,
        )
        for slot in stage.slots
    )
    return tuple(stage.load_order), slots, tuple(schedule.constants_used(stage_index))


class _FastFU:
    """Timing-only mirror of :class:`repro.sim.fu.FUSimulator`.

    Stage 0 has no explicit input queue: its input stream is a virtual
    source (``load_block``/``load_index`` fully determine the next token and
    the DMA-fed input FIFO of the cycle simulator is never empty), which is
    what makes the steady-state fingerprint O(in-flight state) instead of
    O(num_blocks).
    """

    __slots__ = (
        "stage_index",
        "num_blocks",
        "load_order",
        "slots",
        "read_counts",
        "rf",
        "in_channel",
        "out_channel",
        "overlap",
        "lookahead",
        "alu_depth",
        "wb_latency",
        "exec_gap",
        "load_gap",
        "load_block",
        "load_index",
        "next_load_cycle",
        "block_load_barrier",
        "load_complete",
        "exec_block",
        "slot_index",
        "next_exec_cycle",
        "pending_out",
        "pending_wb",
        "loads_issued",
        "instructions_issued",
        "nops_issued",
        "exec_stall_cycles",
        "load_stall_cycles",
        "backpressure_stall_cycles",
    )

    def __init__(self, schedule: OverlaySchedule, stage_index: int, num_blocks: int,
                 in_channel: Optional[_FastChannel], out_channel: Optional[_FastChannel]):
        variant = schedule.variant
        self.load_order, self.slots, constants = _stage_program(schedule, stage_index)
        const_ids = set(constants)
        self.stage_index = stage_index
        self.num_blocks = num_blocks
        # How many slots read each non-constant operand, per block.
        self.read_counts: Dict[int, int] = {}
        for _nop, operands, _emits, _vid, _wb in self.slots:
            for operand in operands:
                if operand not in const_ids:
                    self.read_counts[operand] = self.read_counts.get(operand, 0) + 1
        self.rf = _FastRF(
            name=f"FU{stage_index}.rf",
            physical_depth=variant.rf_depth,
            frame_capacity=variant.rf_frame_capacity,
            const_ids=const_ids,
        )
        self.in_channel = in_channel
        self.out_channel = out_channel
        self.overlap = variant.overlap_load_execute
        self.lookahead = 1 if variant.overlap_load_execute else 0
        self.alu_depth = variant.alu_pipeline_depth
        self.wb_latency = variant.iwp or variant.alu_pipeline_depth
        self.exec_gap = variant.exec_block_gap
        self.load_gap = variant.load_block_gap

        # Pin the load (exec) pointer of a stage without loads (slots) at
        # num_blocks for the whole run: that half of the FU never issues.
        self.load_block = 0 if self.load_order else num_blocks
        self.load_index = 0
        self.next_load_cycle = 0
        self.block_load_barrier = 0
        self.load_complete: Dict[int, int] = {}
        self.exec_block = 0 if self.slots else num_blocks
        self.slot_index = 0
        self.next_exec_cycle = 0
        self.pending_out: Deque[Tuple[int, int, int]] = deque()
        self.pending_wb: Deque[Tuple[int, int, int]] = deque()

        self.loads_issued = 0
        self.instructions_issued = 0
        self.nops_issued = 0
        self.exec_stall_cycles = 0
        self.load_stall_cycles = 0
        self.backpressure_stall_cycles = 0

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        wb = self.pending_wb
        while wb and wb[0][0] <= cycle:
            _, block, value_id = wb.popleft()
            self.rf.write(block, value_id, self.read_counts.get(value_id, 0))
        load_used_port = self._tick_load(cycle)
        if self.overlap or not load_used_port:
            self._tick_exec(cycle)

    def _tick_load(self, cycle: int) -> bool:
        if self.load_block >= self.num_blocks:
            return False
        if cycle < self.next_load_cycle or cycle < self.block_load_barrier:
            return False
        if self.load_block > self.exec_block + self.lookahead:
            return False
        expected = self.load_order[self.load_index]
        if self.in_channel is None:
            # Virtual DMA source: the next token is always available and is
            # exactly (load_block, expected) by construction.
            block, value_id = self.load_block, expected
        else:
            channel = self.in_channel
            queue = channel.queue
            occupancy = len(queue)
            if channel.win_min_empty is None or occupancy < channel.win_min_empty:
                channel.win_min_empty = occupancy
            if not queue:
                self.load_stall_cycles += 1
                return False
            block, value_id = queue[0]
            if block != self.load_block or value_id != expected:
                raise SimulationError(
                    f"FU{self.stage_index}: expected value N{expected} of block "
                    f"{self.load_block} on the input FIFO, found N{value_id} of "
                    f"block {block}"
                )
            queue.popleft()
        self.rf.write(block, value_id, self.read_counts.get(value_id, 0))
        self.loads_issued += 1
        self.load_index += 1
        self.next_load_cycle = cycle + 1
        if self.load_index >= len(self.load_order):
            self.load_complete[self.load_block] = cycle
            self.load_index = 0
            self.load_block += 1
            self.next_load_cycle = cycle + 1 + self.load_gap
        return True

    def _tick_exec(self, cycle: int) -> None:
        if self.exec_block >= self.num_blocks:
            return
        if cycle < self.next_exec_cycle:
            return
        if self.load_order and (
            self.load_block <= self.exec_block
            or cycle <= self.load_complete.get(self.exec_block, -1)
        ):
            self.exec_stall_cycles += 1
            return
        is_nop, operands, emits, value_id, write_back = self.slots[self.slot_index]
        block = self.exec_block

        if is_nop:
            self.nops_issued += 1
            self.instructions_issued += 1
            self._advance_slot(cycle)
            return

        rf = self.rf
        for operand in operands:
            if not rf.has(block, operand):
                self.exec_stall_cycles += 1
                return
        if emits and self.out_channel is not None and self.out_channel.capacity > 0:
            channel = self.out_channel
            pressure = len(channel.queue) + len(self.pending_out)
            if pressure >= channel.capacity:
                channel.win_press_full = True
                self.backpressure_stall_cycles += 1
                return
            if channel.win_max_press is None or pressure > channel.win_max_press:
                channel.win_max_press = pressure

        for operand in operands:
            rf.consume(block, operand)
        self.instructions_issued += 1
        if emits and value_id is not None:
            self.pending_out.append((cycle + self.alu_depth, block, value_id))
        if write_back and value_id is not None:
            self.pending_wb.append((cycle + self.wb_latency, block, value_id))
        self._advance_slot(cycle)

    def _advance_slot(self, cycle: int) -> None:
        self.slot_index += 1
        self.next_exec_cycle = cycle + 1
        if self.slot_index >= len(self.slots):
            self.slot_index = 0
            self.exec_block += 1
            self.next_exec_cycle = cycle + 1 + self.exec_gap
            if not self.overlap:
                self.block_load_barrier = cycle + 1 + self.exec_gap

    # ------------------------------------------------------------------
    # steady-state support
    # ------------------------------------------------------------------
    def base_block(self) -> int:
        """This FU's oldest in-flight block — the canonical relabelling base.

        The occupancy detector fingerprints every FU relative to its *own*
        base so the fingerprint recurs as soon as the stage is locally
        periodic, even while it still runs ahead of (or behind) the global
        completion frontier during the FIFO-fill transient.
        """
        if self.slots:
            return self.exec_block
        if self.load_order:
            return self.load_block
        return 0

    def frontier_block(self) -> int:
        """The most advanced block pointer of this FU (end-of-stream guard)."""
        frontier = -1
        if self.load_order:
            frontier = self.load_block
        if self.slots and self.exec_block > frontier:
            frontier = self.exec_block
        return frontier

    def fingerprint(self, cycle: int, base_block: int) -> tuple:
        """Control state relative to ``(cycle, base_block)``.

        Cycle-valued fields that are already in the past collapse to their
        clamp value (they compare identically forever); block pointers pinned
        at ``num_blocks`` (stages without loads/slots) map to a sentinel so
        they never alias a live relative pointer.
        """
        c, r = cycle, base_block
        has_loads = bool(self.load_order)
        has_slots = bool(self.slots)
        load_rel = self.load_block - r if has_loads else _PINNED
        exec_rel = self.exec_block - r if has_slots else _PINNED
        lc_window: Tuple[Tuple[int, int], ...] = ()
        if has_loads and has_slots:
            lc = self.load_complete
            lc_window = tuple(
                (b - r, max(lc.get(b, c - 1) - c, -1))
                for b in range(self.exec_block, min(self.load_block, self.num_blocks))
            )
        return (
            load_rel,
            self.load_index,
            max(self.next_load_cycle - c, 0),
            max(self.block_load_barrier - c, 0),
            exec_rel,
            self.slot_index,
            max(self.next_exec_cycle - c, 0),
            lc_window,
            tuple((ready - c, block - r, vid) for ready, block, vid in self.pending_out),
            tuple((ready - c, block - r, vid) for ready, block, vid in self.pending_wb),
            tuple(sorted(((b - r, vid), n) for (b, vid), n in self.rf.reads_left.items())),
        )

    def stats_snapshot(self) -> Tuple[int, ...]:
        return tuple(getattr(self, f) for f in _STAT_FIELDS)

    def shift(self, delta_cycles: int, delta_blocks: int, periods: int,
              stats_before: Tuple[int, ...]) -> None:
        """Relabel this FU's state ``periods`` steady-state periods ahead."""
        exec_before = self.exec_block
        if self.load_order:
            # A finished load pointer is pinned at num_blocks (the detector
            # guarantees unfinished pointers stay below it through the skip).
            self.load_block = min(self.load_block + delta_blocks, self.num_blocks)
        if self.slots:
            self.exec_block = min(self.exec_block + delta_blocks, self.num_blocks)
        self.next_load_cycle += delta_cycles
        self.next_exec_cycle += delta_cycles
        self.block_load_barrier += delta_cycles
        self.load_complete = {
            block + delta_blocks: done + delta_cycles
            for block, done in self.load_complete.items()
            if block >= exec_before
        }
        self.pending_out = deque(
            (ready + delta_cycles, block + delta_blocks, vid)
            for ready, block, vid in self.pending_out
        )
        self.pending_wb = deque(
            (ready + delta_cycles, block + delta_blocks, vid)
            for ready, block, vid in self.pending_wb
        )
        self.rf.shift(delta_blocks)
        for field, before in zip(_STAT_FIELDS, stats_before):
            current = getattr(self, field)
            setattr(self, field, current + periods * (current - before))


# ---------------------------------------------------------------------------
# analytic warm-up bound
# ---------------------------------------------------------------------------
def warmup_bound_blocks(schedule: OverlaySchedule) -> int:
    """Upper bound, in completed blocks, on the steady-state warm-up.

    The bounded-FIFO occupancy argument: every inter-stage channel can absorb
    at most ``fifo_depth`` tokens of rate mismatch before backpressure
    throttles its producer, and a filling channel gains at least one token
    per completion period, so after ``(depth-1) * fifo_depth`` completions
    (plus a couple of blocks of pipeline/lookahead slack per stage) every
    channel occupancy — and with it the whole machine state modulo block
    relabelling — must be repeating.
    """
    depth = schedule.depth
    fifo = schedule.overlay.fifo_depth
    return (depth - 1) * (fifo + 2) + 4 * depth + 8


def steady_state_warmup_bound(schedule: OverlaySchedule) -> int:
    """Analytic warm-up upper bound ``W(depth, fifo_depth, II)`` in cycles.

    The steady-state detector must have locked onto the periodic regime
    within this many cycles of a sufficiently long single-lane run (the
    multilane wrapper applies it per lane).  The bound is deliberately
    generous — it is a safety cap on fingerprint-table growth and a
    cross-check oracle for the detector, not a performance model.
    """
    from ..schedule.ii import per_stage_ii

    stage_iis = per_stage_ii(schedule)
    ii = max(stage_iis) if stage_iis else 1
    pipeline = schedule.depth * (schedule.variant.alu_pipeline_depth + 2)
    return ii * (warmup_bound_blocks(schedule) + schedule.depth) + pipeline


# ---------------------------------------------------------------------------
# steady-state detector
# ---------------------------------------------------------------------------
_INF = 10 ** 18


def _received_fingerprint(received: Dict[int, Set[int]], completed: int) -> tuple:
    return tuple(
        (block - completed, tuple(sorted(vids)))
        for block, vids in sorted(received.items())
    )


class _OccupancyDetector:
    """Occupancy-based early steady-state detector.

    Fingerprints each FU relative to its *own* oldest in-flight block and
    drops channel contents from the fingerprint entirely (a channel's
    content is fully determined by its consumer's load pointer plus the
    occupancy, because tokens flow strictly in stream order).  The
    fingerprint therefore recurs as soon as every stage is locally periodic
    — while inter-stage occupancies are still ramping towards their final
    values — and the skip handles a constant per-period occupancy drift
    ``d_k`` per channel.

    Exactness rests on the bounded-FIFO occupancy argument (docs/engine.md):
    a recurrence proves the evolution repeats shifted by ``d_k`` tokens per
    period *unless* an emptiness or backpressure threshold outcome flips.
    The detector tracks, per channel and per detection window, the minimum
    occupancy at consumer emptiness checks and the maximum pressure at
    producer backpressure checks, and jumps only as many periods as provably
    keep every threshold outcome unchanged.  Saturation events (a channel
    reaching capacity, the stream running out) end a regime; the detector
    then restarts and finds the next regime's period.  The same machinery
    compresses the fill transient (positive drift), the drift-free middle
    and the end-of-stream drain (negative drift, channels emptying).
    """

    def __init__(self, fus: List[_FastFU], channels: List[_FastChannel],
                 num_blocks: int, max_events: int, log: List[dict]):
        self.fus = fus
        self.channels = channels
        self.num_blocks = num_blocks
        self.max_events = max(max_events, 16)
        self.log = log
        self.table: Dict[tuple, int] = {}
        #: One record per completion event: (cycle, completed, per-FU bases,
        #: per-FU stats snapshots, per-channel occupancies, per-channel
        #: threshold-check aggregates since the previous event).
        self.events: List[tuple] = []

    def observe(self, cycle: int, completed: int, received: Dict[int, Set[int]],
                completion: List[Optional[int]]) -> Optional[Tuple[int, int]]:
        fus = self.fus
        since = []
        for channel in self.channels:
            since.append((
                channel.win_min_empty,
                channel.win_max_press,
                channel.win_press_full,
                channel.win_push_max,
            ))
            channel.reset_window()
        bases = tuple(fu.base_block() for fu in fus)
        event = (
            cycle,
            completed,
            bases,
            [fu.stats_snapshot() for fu in fus],
            tuple(len(channel.queue) for channel in self.channels),
            since,
        )
        fingerprint = (
            tuple(fu.fingerprint(cycle, base) for fu, base in zip(fus, bases)),
            _received_fingerprint(received, completed),
        )
        index = self.table.get(fingerprint)
        if index is None:
            if len(self.events) >= self.max_events:
                # Past the analytic warm-up bound both regimes and the final
                # steady state must already have recurred; a table this large
                # means pathological aliasing, so restart detection instead
                # of growing without bound.
                self.table.clear()
                self.events.clear()
            self.events.append(event)
            self.table[fingerprint] = len(self.events) - 1
            return None
        skip = self._try_skip(self.events[index], self.events[index + 1:], event,
                              received, completion)
        if skip is None:
            if len(self.events) >= self.max_events:
                self.table.clear()
                self.events.clear()
            # Keep the most recent occurrence so future match windows stay
            # one minimal period wide.
            self.events.append(event)
            self.table[fingerprint] = len(self.events) - 1
            return None
        new_cycle, new_completed, _ramp = skip
        # A regime boundary lies just ahead — a channel saturating after a
        # ramp skip, or the end-of-stream frontier after a drift-free skip —
        # so the recorded windows no longer describe the state.  Restart
        # detection seeded with the post-skip state: the canonical
        # fingerprint is invariant under the skip relabelling by
        # construction, so if the regime continues for another completion
        # the detector re-locks after *one* window instead of two, and the
        # drain decomposes into emptying regimes (negative drift) skipped
        # the same way as the fill.
        self.table.clear()
        self.events.clear()
        self.events.append((
            new_cycle,
            new_completed,
            tuple(fu.base_block() for fu in fus),
            [fu.stats_snapshot() for fu in fus],
            tuple(len(channel.queue) for channel in self.channels),
            # Since-aggregates of a seed event are never read: validation
            # windows start strictly after the matched index.
            [(None, None, False, 0)] * len(self.channels),
        ))
        self.table[fingerprint] = 0
        return new_cycle, new_completed

    # ------------------------------------------------------------------
    def _try_skip(self, prev: tuple, window: List[tuple], event: tuple,
                  received: Dict[int, Set[int]],
                  completion: List[Optional[int]]) -> Optional[Tuple[int, int, bool]]:
        cycle1, completed1, bases1, stats1, occs1, _ = prev
        cycle, completed, bases, _stats, occs, since = event
        window = window + [event]
        period = cycle - cycle1
        blocks = completed - completed1
        if period <= 0 or blocks <= 0:
            return None
        fus = self.fus
        num_blocks = self.num_blocks
        deltas = [b2 - b1 for b1, b2 in zip(bases1, bases)]
        if any(d < 0 for d in deltas):
            return None
        # The sink FU must advance in lockstep with the completion counter,
        # otherwise the two fingerprint frames would drift apart.
        if fus[-1].slots and deltas[-1] != blocks:
            return None

        # Per-channel occupancy drift and threshold-safety limits.
        periods = _INF
        drifts: List[int] = []
        push_maxes: List[int] = []
        for k, channel in enumerate(self.channels):
            drift = occs[k] - occs1[k]
            drifts.append(drift)
            tokens_per_block = len(fus[k + 1].load_order)
            if drift != tokens_per_block * (deltas[k] - deltas[k + 1]):
                return None  # aliasing: not a consistent token-conserving mirror
            min_empty: Optional[int] = None
            max_press: Optional[int] = None
            press_full = False
            push_max = 0
            for record in window:
                w_min, w_press, w_full, w_push = record[5][k]
                if w_min is not None and (min_empty is None or w_min < min_empty):
                    min_empty = w_min
                if w_press is not None and (max_press is None or w_press > max_press):
                    max_press = w_press
                press_full = press_full or w_full
                if w_push > push_max:
                    push_max = w_push
            push_maxes.append(push_max)
            if drift == 0:
                continue
            if min_empty == 0:
                return None  # an emptiness outcome would flip on repeat
            capacity = channel.capacity
            if drift > 0:
                if capacity > 0:
                    if max_press is not None:
                        periods = min(periods, (capacity - 1 - max_press) // drift)
                    periods = min(periods, (capacity - push_max) // drift)
            else:
                if press_full:
                    return None  # a fullness outcome would flip on repeat
                if min_empty is not None:
                    periods = min(periods, (min_empty - 1) // (-drift))

        # End-of-stream guard: no block pointer may reach num_blocks inside
        # the skipped periods (the only absolute-index comparisons).
        for fu, delta in zip(fus, deltas):
            if delta > 0:
                periods = min(periods, (num_blocks - 1 - fu.frontier_block()) // delta)
        if periods >= _INF or periods < 1:
            return None

        delta_cycles = periods * period
        for fu, delta, before in zip(fus, deltas, stats1):
            fu.shift(delta_cycles, periods * delta, periods, before)
        ramp = False
        for k, channel in enumerate(self.channels):
            drift = drifts[k]
            consumer = fus[k + 1]
            new_length = len(channel.queue) + periods * drift
            if drift:
                ramp = True
                channel.high_water = max(
                    channel.high_water, push_maxes[k] + periods * drift
                )
            if drift == 0 and periods * deltas[k + 1] == 0:
                continue  # contents and labels both unchanged
            if new_length and not consumer.load_order:
                raise SimulationError(
                    f"FIFO {channel.name!r} holds tokens but FU{k + 1} loads "
                    "nothing; schedule is inconsistent"
                )
            # A channel's content is the in-order token stream starting at
            # its consumer's (already shifted) load pointer.
            order = consumer.load_order
            block, slot = consumer.load_block, consumer.load_index
            tokens = []
            for _ in range(new_length):
                tokens.append((block, order[slot]))
                slot += 1
                if slot == len(order):
                    slot = 0
                    block += 1
            channel.queue = deque(tokens)
        if received:
            shifted = {
                block + periods * blocks: vids for block, vids in received.items()
            }
            received.clear()
            received.update(shifted)
        window_completions = completion[completed1:completed]
        for j in range(1, periods + 1):
            base = completed1 + j * blocks
            offset = j * period
            for t, done in enumerate(window_completions):
                completion[base + t] = done + offset  # type: ignore[operator]
        self.log.append({
            "kind": "ramp" if ramp else "steady",
            "cycle": cycle,
            "completed": completed,
            "period": period,
            "blocks": blocks,
            "periods": periods,
        })
        return cycle + delta_cycles, completed + periods * blocks, ramp


# ---------------------------------------------------------------------------
# timing memo
# ---------------------------------------------------------------------------
#: Blocks the memo's lane timings may cover in total (each keeps an 8-byte
#: completion cycle per block): the least recently used go first, and a
#: longer lane is timed without being kept.  It holds the end-to-end
#: benchmark's sim-stream working set (100 lanes, 83.8k blocks).
TIMING_MEMO_BLOCKS = 1 << 17
#: Blocks each entry is charged at least, for the counters and high-water
#: marks it keeps besides its completion cycles, so many short lanes cannot
#: grow the memo without bound either.
TIMING_MEMO_MIN_BLOCKS = 256


class _LaneTiming(NamedTuple):
    """One lane's value-free timing, stored compactly for the memo."""

    completion_cycles: array[int]
    total_cycles: int
    measured_ii: Optional[float]
    fu_stats: Tuple[Tuple[int, ...], ...]
    fifo_high_water: Tuple[int, ...]
    rf_high_water: Tuple[int, ...]
    rf_per_block_high_water: Tuple[int, ...]
    #: The lane's ``fast_forward_events``, each as its dict's items.
    events: Tuple[Tuple[Tuple[str, object], ...], ...]

    def result(self, schedule: OverlaySchedule, num_blocks: int) -> SimulationResult:
        """A fresh result (``outputs=[]``): no list in it is shared."""
        completion_cycles = self.completion_cycles.tolist()
        return SimulationResult(
            kernel_name=schedule.kernel_name,
            overlay_name=schedule.overlay.name,
            num_blocks=num_blocks,
            outputs=[],
            completion_cycles=completion_cycles,
            total_cycles=self.total_cycles,
            measured_ii=self.measured_ii,
            latency_cycles=completion_cycles[0] + 1,
            fu_stats=[FUStats(*stats) for stats in self.fu_stats],
            fifo_high_water=list(self.fifo_high_water),
            rf_high_water=list(self.rf_high_water),
            rf_per_block_high_water=list(self.rf_per_block_high_water),
            trace=None,
        )


def _timing_digest(schedule: OverlaySchedule) -> bytes:
    """A 16-byte digest of everything the tick loop reads of ``schedule``.

    That is each stage's :func:`_stage_program`, the FIFO depth and the
    variant's timing parameters; no kernel, overlay, variant or strategy
    name.  Schedules of equal digest time every lane alike.
    """
    variant = schedule.variant
    content = (
        schedule.overlay.fifo_depth,
        variant.rf_depth,
        variant.rf_frame_capacity,
        variant.overlap_load_execute,
        variant.alu_pipeline_depth,
        variant.iwp,
        variant.exec_block_gap,
        variant.load_block_gap,
        tuple(_stage_program(schedule, k) for k in range(schedule.depth)),
    )
    return hashlib.blake2b(repr(content).encode(), digest_size=16).digest()


#: Each live schedule object's :func:`_timing_digest`, computed once.
_DIGESTS: IdentityMemo[OverlaySchedule, bytes] = IdentityMemo(_timing_digest)


class _TimingMemo:
    """Lane timings keyed by ``(schedule digest, lane length, cycle cap,
    fast_forward)``, least recently used first, within
    :data:`TIMING_MEMO_BLOCKS`.  One lock makes lookups and inserts safe
    across threads; the tick loop runs outside it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Key -> (blocks charged, timing).
        self._entries: "OrderedDict[tuple, Tuple[int, _LaneTiming]]" = OrderedDict()
        #: Blocks charged by the entries kept.
        self.blocks = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[_LaneTiming]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: tuple, timing: _LaneTiming) -> None:
        charge = max(len(timing.completion_cycles), TIMING_MEMO_MIN_BLOCKS)
        if charge > TIMING_MEMO_BLOCKS:
            return
        with self._lock:
            entries = self._entries
            replaced = entries.pop(key, None)
            if replaced is not None:
                self.blocks -= replaced[0]
            while entries and self.blocks + charge > TIMING_MEMO_BLOCKS:
                self.blocks -= entries.popitem(last=False)[1][0]
            entries[key] = (charge, timing)
            self.blocks += charge

    def keys(self) -> Set[tuple]:
        """The keys held now, to pass to :meth:`since` later."""
        with self._lock:
            return set(self._entries)

    def since(self, keys: Set[tuple]) -> List[Tuple[tuple, _LaneTiming]]:
        """Each ``(key, timing)`` held now whose key is not in ``keys``."""
        with self._lock:
            return [(key, entry[1]) for key, entry in self._entries.items() if key not in keys]

    def update(self, entries: Iterable[Tuple[tuple, _LaneTiming]]) -> None:
        """:meth:`put` each ``(key, timing)``, such as another process's :meth:`since`."""
        for key, timing in entries:
            self.put(key, timing)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.blocks = 0


#: The process's lane timings, shared by every schedule object, engine and
#: thread.
_TIMINGS = _TimingMemo()


def clear_timing_memo() -> None:
    """Forget every memoised lane timing, so each next run ticks its loop.

    A benchmark that times repeated runs of one stream shape calls this
    before each timed run, so it times the tick loop rather than a memo
    hit; the memo is keyed by content, so this holds also across schedule
    objects of equal content.
    """
    _TIMINGS.clear()


class FastSimulator:
    """Drop-in fast engine with the same interface as ``OverlaySimulator``.

    ``fast_forward=False`` disables the steady-state skip entirely (the
    engine then runs every cycle, still value-free); it exists for
    differential testing of the fast-forward itself.  Every applied skip is
    appended to ``fast_forward_events``.

    A run times each lane with :meth:`_run_timing` and fills in its outputs
    from the value plane (:meth:`_outputs`).  The batched engine
    (:class:`repro.engine.batchsim.BatchSimulator`) is this engine with the
    value plane swapped.  Lane timings are memoised by content and shared
    by both engines, so a multilane run ticks its loop once per distinct
    lane length, and a repeated stream shape not at all.
    """

    def __init__(
        self,
        schedule: OverlaySchedule,
        max_cycles: Optional[int] = None,
        fast_forward: bool = True,
    ):
        self.schedule = schedule
        self.max_cycles = max_cycles
        self.fast_forward = fast_forward
        self.fast_forward_events: List[dict] = []

    # ------------------------------------------------------------------
    def run(self, input_blocks: Sequence[Sequence[int]]) -> SimulationResult:
        self.fast_forward_events = []
        blocks = check_input_blocks(self.schedule, input_blocks)
        lanes = self.schedule.variant.lanes
        if lanes == 1:
            return self._run_lane(blocks)
        lane_results: List[Optional[SimulationResult]] = [
            self._run_lane(stream) if stream else None
            for stream in split_lane_blocks(blocks, lanes)
        ]
        return merge_lane_results(self.schedule, blocks, lane_results)

    def _run_lane(self, blocks: List[List[int]]) -> SimulationResult:
        result = self._run_timing(len(blocks))
        result.outputs = self._outputs(blocks)
        return result

    def _outputs(self, blocks: List[List[int]]) -> List[List[int]]:
        return _functional_outputs(self.schedule.dfg, blocks)

    # ------------------------------------------------------------------
    def _run_timing(self, num_blocks: int) -> SimulationResult:
        """Time one lane of ``num_blocks`` blocks (value-free: ``outputs=[]``).

        Timing depends on what the tick loop reads of the schedule, the
        lane length, the cycle cap and ``fast_forward``, never on values,
        so it is memoised process-wide under those four, the schedule as
        its :func:`_timing_digest`: one entry serves ``fast`` and
        ``batched``, and every schedule object of equal content.  A hit
        skips the loop, rebuilds the result from the stored fields, under
        this schedule's kernel and overlay names, and replays the stored
        skips into :attr:`fast_forward_events`.
        """
        schedule = self.schedule
        max_cycles = self.max_cycles or default_max_cycles(schedule, num_blocks)
        key = (_DIGESTS(schedule), num_blocks, max_cycles, self.fast_forward)
        timing = _TIMINGS.get(key)
        if timing is None:
            timing = self._time_lane(num_blocks, max_cycles)
            _TIMINGS.put(key, timing)
        else:
            self.fast_forward_events.extend(dict(event) for event in timing.events)
        return timing.result(schedule, num_blocks)

    def _time_lane(self, num_blocks: int, max_cycles: int) -> _LaneTiming:
        """Tick one lane of ``num_blocks`` blocks to its last completion.

        Each cycle delivers matured results upstream to downstream, then
        ticks every FU in stage order; a cycle that completes a block lets
        the detector look for a fast-forward.
        """
        schedule = self.schedule
        depth = schedule.depth
        last = depth - 1
        stage0_loads = len(schedule.stage(0).load_order)
        expected_per_block = len(schedule.stage(last).emission_order)
        if expected_per_block == 0:
            raise SimulationError("the final stage emits nothing; schedule is broken")

        channels = [
            _FastChannel(name=f"ch{k}", capacity=schedule.overlay.fifo_depth)
            for k in range(1, depth)
        ]
        fus: List[_FastFU] = []
        for k in range(depth):
            fus.append(
                _FastFU(
                    schedule,
                    k,
                    num_blocks,
                    in_channel=channels[k - 1] if k > 0 else None,
                    out_channel=channels[k] if k < last else None,
                )
            )

        completion: List[Optional[int]] = [None] * num_blocks
        received: Dict[int, Set[int]] = {}
        log = self.fast_forward_events
        logged = len(log)
        detector = None
        if self.fast_forward:
            detector = _OccupancyDetector(
                fus,
                channels,
                num_blocks,
                max_events=warmup_bound_blocks(schedule) + 64,
                log=log,
            )

        completed = 0
        cycle = 0
        while completed < num_blocks:
            if cycle > max_cycles:
                raise SimulationError(
                    f"simulation of {schedule.kernel_name!r} on "
                    f"{schedule.overlay.name} exceeded {max_cycles} cycles; "
                    "likely a schedule/codegen deadlock"
                )
            completions_this_cycle = 0
            for k in range(depth):
                pending = fus[k].pending_out
                if k < last:
                    channel = channels[k]
                    while pending and pending[0][0] <= cycle:
                        _, block, value_id = pending.popleft()
                        channel.push((block, value_id))
                else:
                    while pending and pending[0][0] <= cycle:
                        _, block, value_id = pending.popleft()
                        bucket = received.get(block)
                        if bucket is None:
                            bucket = received[block] = set()
                        bucket.add(value_id)
                        if len(bucket) >= expected_per_block and completion[block] is None:
                            completion[block] = cycle
                            completed += 1
                            completions_this_cycle += 1
                            del received[block]
            for fu in fus:
                fu.tick(cycle)
            cycle += 1

            if completions_this_cycle and detector is not None and completed < num_blocks:
                skipped_to = detector.observe(cycle, completed, received, completion)
                if skipped_to is not None:
                    cycle, completed = skipped_to
        for fu in fus:
            fu.rf.check_capacity()

        completion_cycles = array("q", completion)  # type: ignore[arg-type]
        return _LaneTiming(
            completion_cycles=completion_cycles,
            total_cycles=cycle,
            measured_ii=_steady_state_ii(completion_cycles),
            fu_stats=tuple(fu.stats_snapshot() for fu in fus),
            fifo_high_water=(
                (num_blocks * stage0_loads,)
                + tuple(channel.high_water for channel in channels)
                + (num_blocks * expected_per_block,)
            ),
            rf_high_water=tuple(fu.rf.high_water for fu in fus),
            rf_per_block_high_water=tuple(fu.rf.per_block_high_water for fu in fus),
            events=tuple(tuple(event.items()) for event in log[logged:]),
        )


def _functional_outputs(dfg, blocks: List[List[int]]) -> List[List[int]]:
    """Output rows exactly as the cycle simulator's datapath produces them.

    Operation results are wrapped by the opcode semantics, and the output
    words an input feeds straight through are wrapped by the evaluator, as
    the PASS slots that carry them to the output FIFO wrap them.
    """
    return stream_evaluator(dfg).run(blocks)
