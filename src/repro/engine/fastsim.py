"""Event-driven fast simulation engine.

:class:`~repro.sim.overlay.OverlaySimulator` executes every FU at the value
level, one cycle at a time, which makes large sweeps O(total cycles x depth)
with per-token dictionary churn.  This module reproduces *exactly* the same
measurements an order of magnitude faster, exploiting two observations:

1. **Timing is value-independent.**  Nothing in the FU control logic — load
   ordering, operand-ready checks, FIFO backpressure, block gaps — depends on
   the *numeric* value of a token, only on which ``(block, value id)`` pairs
   are where.  The engine therefore times events without values and
   reconstructs the output stream functionally from the DFG (applying the
   same 32-bit wrap the datapath applies to values that transit PASS slots),
   so the produced ``outputs`` are bit-identical to the cycle simulator's.

2. **Timing is a max-plus recurrence over blocks.**  Every load and every
   slot issue happens at the maximum of a few earlier events plus fixed
   gaps: the previous load or issue (plus the block gap), the block's last
   load, the write-backs of its operands, the token's arrival from
   upstream, lookahead or the block barrier, and the FIFO slot the
   downstream stage freed ``fifo_depth`` tokens earlier.  These references
   are the same for every block and never look forward, so the engine
   builds one block's template per lane (:class:`_BlockTemplate`) and
   evaluates it block after block.  Stall counters, completion cycles and
   FIFO/RF high-water marks are read off the same event times.  Once every
   stage's events shift by a constant per block over the template's
   look-back window, the rest repeats: the engine jumps to the end of the
   stream when all stages share that shift, and, while a FIFO fills between
   stages of different rates, as far as no reference between them can
   bind.  Every field still equals the cycle simulator's (see
   ``docs/engine.md`` for the argument).

Because timing is value-independent, a lane's timing is a function of what
the recurrence reads of the schedule and of the lane length alone, so one
process-wide memo keeps the lane timings runs measured, keyed by that
content (:meth:`FastSimulator._run_timing`, :func:`clear_timing_memo`): a
repeated stream shape is not timed again, also on another schedule object
of equal content, and still computes its outputs from the new stream.  The
recurrence is the one timing path of both production engines: the batched
engine (:mod:`repro.engine.batchsim`) swaps only the value plane, so the two
share every memo entry.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from graphlib import CycleError, TopologicalSorter
from operator import sub
from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..kernels.reference import IdentityMemo, stream_evaluator
from ..schedule.types import OverlaySchedule
from ..sim.fu import FUStats
from ..sim.overlay import (
    SimulationResult,
    _steady_state_ii,
    check_input_blocks,
    default_max_cycles,
    merge_lane_results,
    split_lane_blocks,
)


def _stage_program(schedule: OverlaySchedule, stage_index: int) -> Tuple[tuple, tuple, tuple]:
    """What the recurrence reads of one stage: its load order, each slot as
    ``(is_nop, operands, emits, value_id, write_back)``, and the constants
    preloaded into its register file."""
    stage = schedule.stage(stage_index)
    slots = tuple(
        (slot.is_nop, tuple(slot.operands), slot.emits, slot.value_id, slot.write_back)
        for slot in stage.slots
    )
    return tuple(stage.load_order), slots, tuple(schedule.constants_used(stage_index))


# ---------------------------------------------------------------------------
# block recurrence
# ---------------------------------------------------------------------------
#: The cycle of every event of the blocks before block 0: no reference to
#: one of them binds.
_NEVER = -(1 << 60)
#: Beyond every cycle a lane reaches.
_FOREVER = 1 << 62


class _BlockTemplate:
    """One block's events and the max-plus references between them.

    Each load and each slot of each stage is one event, numbered stage by
    stage, loads first.  An event's cycle is the largest of ``0`` and its
    references ``(blocks back, event, cycles added)`` into the lane's last
    :attr:`window` + 1 blocks.  :attr:`program` lists the events so that a
    reference into the same block is always computed first, each as
    ``(event, references within its stage, reference into another stage)``.
    That last one, or None, is a load's token arrival or an emitting slot's
    free FIFO slot, with a fourth field: the stall counter what it adds to
    the cycle is charged to, stage ``k``'s load stall ``2k`` or
    backpressure ``2k + 1``.

    Building raises :class:`SimulationError` on a malformed schedule: a
    stage that does not load the stream its upstream emits, a value written
    twice in one block, an operand nothing writes, a block that waits on
    itself, or a last stage whose blocks never complete.
    """

    def __init__(self, schedule: OverlaySchedule):
        variant = schedule.variant
        depth, fifo = schedule.depth, schedule.overlay.fifo_depth
        last = depth - 1
        programs = [_stage_program(schedule, k) for k in range(depth)]
        emitted = [
            [vid for _nop, _ops, emits, vid, _wb in slots if emits and vid is not None]
            for _loads, slots, _consts in programs
        ]
        if not emitted[last]:
            raise SimulationError("the final stage emits nothing; schedule is broken")
        if len(set(emitted[last])) < len(emitted[last]):
            raise SimulationError(f"FU{last} emits a value twice per block, so no block completes")
        for k in range(1, depth):
            if list(programs[k][0]) != emitted[k - 1] or not emitted[k - 1]:
                raise SimulationError(
                    f"FU{k} loads {list(programs[k][0])} but FU{k - 1} emits "
                    f"{emitted[k - 1]}; the stream between them is broken"
                )
        self.depth, self.fifo, self.alu = depth, fifo, variant.alu_pipeline_depth
        self.exec_gap = variant.exec_block_gap
        self.shared_port = not variant.overlap_load_execute
        self.rf_limits = (variant.rf_depth, variant.rf_frame_capacity)
        #: The most blocks back a reference reaches.
        self.window = max([2] + [-(-fifo // len(tokens)) for tokens in emitted[:last]])
        self.loads = [len(loads) for loads, _slots, _consts in programs]
        self.slots = [len(slots) for _loads, slots, _consts in programs]
        self.ranges: List[Tuple[int, int]] = []
        for size in map(sum, zip(self.loads, self.slots)):
            start = self.ranges[-1][1] if self.ranges else 0
            self.ranges.append((start, start + size))
        self.size = self.ranges[-1][1]
        self.stage_of = [k for k, (lo, hi) in enumerate(self.ranges) for _ in range(lo, hi)]
        self.is_nop = [False] * self.size
        wb_latency = variant.iwp or self.alu
        refs: List[List[tuple]] = [[] for _ in range(self.size)]
        cross: List[Optional[tuple]] = [None] * self.size
        emits_at: List[List[int]] = []
        #: Per stage: each register-file entry of one block as ``(writing
        #: event, cycles added, last reading event)``, and how many constants
        #: the stage holds.
        self.registers: List[Tuple[List[tuple], int]] = []
        for k, (load_order, slots, constants) in enumerate(programs):
            first, end = self.ranges[k]
            first_slot = first + len(load_order)
            last_read = {
                operand: first_slot + s
                for s, (_nop, operands, _emits, _vid, _wb) in enumerate(slots)
                for operand in operands
                if operand not in constants
            }
            written = {
                vid: first_slot + s
                for s, (nop, _ops, _emits, vid, wb) in enumerate(slots)
                if wb and not nop and vid is not None
            }
            writes = [vid for vid in load_order if vid in last_read] + [
                vid for nop, _ops, _emits, vid, wb in slots if wb and not nop and vid in last_read
            ]
            for vid in writes:
                if writes.count(vid) > 1:
                    raise SimulationError(f"FU{k} writes N{vid} of each block more than once")
            self.registers.append((
                [(first + i, 0, last_read[vid])
                 for i, vid in enumerate(load_order) if vid in last_read]
                + [(event, wb_latency, last_read[vid])
                   for vid, event in written.items() if vid in last_read],
                len(constants),
            ))

            for i in range(len(load_order)):
                event = first + i
                if i:
                    refs[event].append((0, event - 1, 1))
                else:
                    refs[event].append((1, first_slot - 1, 1 + variant.load_block_gap))
                    if variant.overlap_load_execute:
                        refs[event].append((2, end - 1, 1))  # lookahead
                    else:
                        refs[event].append((1, end - 1, 1 + self.exec_gap))  # barrier
                if k:
                    cross[event] = (0, emits_at[k - 1][i], self.alu, 2 * k)
            emits_at.append([])
            for s, (nop, operands, emits, vid, _wb) in enumerate(slots):
                event = first_slot + s
                self.is_nop[event] = nop
                refs[event].append((0, event - 1, 1) if s else (1, end - 1, 1 + self.exec_gap))
                if load_order:
                    refs[event].append((0, first_slot - 1, 1))
                for operand in operands:
                    if operand in constants or operand in load_order:
                        continue
                    if operand not in written:
                        raise SimulationError(
                            f"FU{k} slot {s} reads N{operand}, which FU{k} neither "
                            "loads, writes back nor holds as a constant"
                        )
                    refs[event].append((0, written[operand], wb_latency))
                if emits and k < last:
                    # The FIFO has room once the downstream stage has loaded
                    # the token ``fifo_depth`` emits back.
                    back, index = divmod(len(emits_at[k]) - fifo, len(emitted[k]))
                    cross[event] = (-back, self.ranges[k + 1][0] + index, 1, 2 * k + 1)
                if emits and vid is not None:
                    emits_at[k].append(event)

        graph = {}
        for event in range(self.size):
            links = refs[event] + ([cross[event]] if cross[event] else [])
            graph[event] = {link[1] for link in links if not link[0]}
        try:
            order = TopologicalSorter(graph).static_order()
            self.program = [(event, tuple(refs[event]), cross[event]) for event in order]
        except CycleError as error:
            event = error.args[1][0]
            k = self.stage_of[event]
            index = event - self.ranges[k][0]
            what = f"load {index}" if index < self.loads[k] else f"slot {index - self.loads[k]}"
            raise SimulationError(
                f"FU{k} {what} waits on a later event of its own block; the schedule deadlocks"
            ) from None
        #: Per channel: the events that push its tokens, and those that pop them.
        self.channels = [
            (emits_at[k], range(self.ranges[k + 1][0], self.ranges[k + 1][0] + self.loads[k + 1]))
            for k in range(last)
        ]
        #: The event whose result completes a block, and the tokens a block emits.
        self.completes, self.emitted = emits_at[last][-1], len(emits_at[last])

    # ------------------------------------------------------------------
    def evaluate(self, hist: List[List[int]], stalls: List[int]) -> None:
        """Time the block ``hist[0]`` from the blocks before it."""
        times = hist[0]
        for event, refs, cross in self.program:
            cycle = 0
            for back, source, delay in refs:
                ready = hist[back][source] + delay
                if ready > cycle:
                    cycle = ready
            if cross is not None:
                back, source, delay, counter = cross
                ready = hist[back][source] + delay
                if ready > cycle:
                    stalls[counter] += ready - cycle
                    cycle = ready
            times[event] = cycle

    def track_shifts(self, hist: List[List[int]], shifts: List[Optional[int]],
                     runs: List[int]) -> None:
        """Count, per stage, the blocks in a row whose events all moved on
        by one shift from the block before."""
        times, previous = hist[0], hist[1]
        for k, (lo, hi) in enumerate(self.ranges):
            steps = set(map(sub, times[lo:hi], previous[lo:hi]))
            step = steps.pop() if len(steps) == 1 else None
            if step is None or step != shifts[k]:
                runs[k] = 0
            runs[k] += step is not None
            shifts[k] = step

    def fill_fifos(self, hist: List[List[int]], block: int, heads: List[int],
                   peaks: List[int]) -> None:
        """Raise each channel's high water to its occupancy after each push
        of the block ``hist[0]``.  ``heads[k]`` is channel ``k``'s oldest
        token not yet popped at its last push; a token pushed and popped in
        one cycle is pushed first."""
        times = hist[0]
        for k, (pushes, pops) in enumerate(self.channels):
            width = len(pops)
            token = block * width
            head = heads[k]
            for push in pushes:
                arrival = times[push] + self.alu
                head = max(head, token - self.fifo + 1)
                while True:
                    head_block, index = divmod(head, width)
                    if hist[block - head_block][pops[index]] >= arrival:
                        break
                    head += 1
                peaks[k] = max(peaks[k], token - head + 1)
                token += 1
            heads[k] = head

    def rf_peaks(self, k: int, blocks: Sequence[List[int]], limit: int) -> Tuple[int, int]:
        """Stage ``k``'s register-file high water, and one block's, over the
        writes up to cycle ``limit`` of consecutive ``blocks``.  At most two
        consecutive blocks hold entries at once (a load waits for the issue
        of the block two back), so every peak shows in some pair.  Within a
        cycle the writes (a landing write-back, then a load) come before the
        issuing slot's reads; the order of the two writes moves no peak."""
        entries, constants = self.registers[k]
        marks = []
        for tag, times in enumerate(blocks):
            for write, delay, read in entries:
                if times[write] + delay <= limit:
                    marks.append((times[write] + delay, False, tag))
                    marks.append((times[read], True, tag))
        if not marks:
            return 0, 0
        live = [0] * len(blocks)
        total = peak = block_peak = 0
        for _cycle, is_read, tag in sorted(marks):
            step = -1 if is_read else 1
            live[tag] += step
            total += step
            if step > 0:
                peak = max(peak, total)
                block_peak = max(block_peak, live[tag])
        return peak + constants, block_peak + constants

    def ramp_limit(self, hist: List[List[int]], shifts: List[int]) -> int:
        """For how many more blocks every reference between stages of
        different shifts stays at or below the cycle its event's own stage
        gives it; 0 if one already binds."""
        limit = _FOREVER
        for event, refs, cross in self.program:
            if cross is None:
                continue
            gain = shifts[self.stage_of[cross[1]]] - shifts[self.stage_of[event]]
            if gain:
                back, source, delay, _counter = cross
                cycle = max([0] + [hist[b][s] + d for b, s, d in refs])
                slack = cycle - hist[back][source] - delay
                if slack < 0:
                    return 0
                if gain > 0:
                    limit = min(limit, slack // gain)
        return limit

    def counters(self, hist: List[List[int]], stalls: List[int], num_blocks: int,
                 done: int) -> Tuple[Tuple[int, ...], ...]:
        """Each stage's :class:`FUStats` fields, given the lane's last two
        blocks, its load-stall and backpressure totals and its last
        completion ``done``, after which nothing issues."""
        final, previous = hist[0], hist[1]
        counters = []
        for k, (first, end) in enumerate(self.ranges):
            loads, slots = self.loads[k], self.slots[k]
            issued = slots * num_blocks
            nops = sum(self.is_nop[first:end]) * num_blocks
            # Every cycle an issue waits past its earliest one is a stall:
            # backpressure, else an exec stall, unless a shared port loads.
            exec_stalls = (
                final[end - 1] - (slots - 1) - (num_blocks - 1) * (slots + self.exec_gap)
                - stalls[2 * k + 1] - (num_blocks * loads if self.shared_port else 0)
            )
            for event in range(end - 1, end - slots - 1, -1):  # never issued
                if final[event] <= done:
                    break
                if event > end - slots:
                    earliest = final[event - 1] + 1
                else:
                    earliest = previous[end - 1] + 1 + self.exec_gap if num_blocks > 1 else 0
                issued -= 1
                nops -= self.is_nop[event]
                exec_stalls -= final[event] - earliest - max(0, done + 1 - earliest)
            counters.append(
                (loads * num_blocks, issued, nops, exec_stalls, stalls[2 * k], stalls[2 * k + 1])
            )
        return tuple(counters)

    def shift(self, hist: List[List[int]], shifts: List[int], blocks: int) -> None:
        """Move every window block ``blocks`` blocks on, each stage by its shift."""
        for times in hist:
            for (lo, hi), shift in zip(self.ranges, shifts):
                times[lo:hi] = [cycle + shift * blocks for cycle in times[lo:hi]]


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
    channel occupancy — and with it every stage's shift per block — must be
    repeating.
    """
    depth = schedule.depth
    fifo = schedule.overlay.fifo_depth
    return (depth - 1) * (fifo + 2) + 4 * depth + 8


def steady_state_warmup_bound(schedule: OverlaySchedule) -> int:
    """Analytic warm-up upper bound ``W(depth, fifo_depth, II)`` in cycles.

    A sufficiently long single-lane run must take its first fast-forward
    jump within this many cycles (the multilane wrapper applies it per
    lane).  The bound is deliberately generous — it is a cross-check oracle
    for the jump, which compiled kernels carry and the verifier checks, not
    a performance model.
    """
    from ..schedule.ii import per_stage_ii

    stage_iis = per_stage_ii(schedule)
    ii = max(stage_iis) if stage_iis else 1
    pipeline = schedule.depth * (schedule.variant.alu_pipeline_depth + 2)
    return ii * (warmup_bound_blocks(schedule) + schedule.depth) + pipeline


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
    """A 16-byte digest of everything the recurrence reads of ``schedule``.

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
    across threads; the recurrence runs outside it."""

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
    """Forget every memoised lane timing, so each next run times its lanes.

    A benchmark that times repeated runs of one stream shape calls this
    before each timed run, so it times the recurrence rather than a memo
    hit; the memo is keyed by content, so this holds also across schedule
    objects of equal content.
    """
    _TIMINGS.clear()


class FastSimulator:
    """Drop-in fast engine with the same interface as ``OverlaySimulator``.

    ``fast_forward=False`` disables the jumps entirely (the engine then
    evaluates every block, still value-free); it exists for differential
    testing of the fast-forward itself.  Every jump is appended to
    ``fast_forward_events``.

    A run times each lane with :meth:`_run_timing` and fills in its outputs
    from the value plane (:meth:`_outputs`).  The batched engine
    (:class:`repro.engine.batchsim.BatchSimulator`) is this engine with the
    value plane swapped.  Lane timings are memoised by content and shared
    by both engines, so a multilane run times once per distinct lane
    length, and a repeated stream shape not at all.
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

        Timing depends on what the recurrence reads of the schedule, the
        lane length, the cycle cap and ``fast_forward``, never on values,
        so it is memoised process-wide under those four, the schedule as
        its :func:`_timing_digest`: one entry serves ``fast`` and
        ``batched``, and every schedule object of equal content.  A hit
        skips the recurrence, rebuilds the result from the stored fields,
        under this schedule's kernel and overlay names, and replays the
        stored jumps into :attr:`fast_forward_events`.
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
        """Time one lane of ``num_blocks`` blocks by the block recurrence.

        Blocks are evaluated in order from the schedule's
        :class:`_BlockTemplate`, keeping the last ``window + 1``.  With
        ``fast_forward``, once every stage's events have moved on by one
        shift per block for ``window`` blocks in a row, the lane jumps: to
        its last block if every stage has the same shift (``steady``), else
        as far as :meth:`_BlockTemplate.ramp_limit` allows (``ramp``: a
        FIFO fills or drains between stages of different rates).
        """
        schedule = self.schedule
        template = _BlockTemplate(schedule)
        depth, window = template.depth, template.window
        last_block = num_blocks - 1
        hist = [[_NEVER] * template.size for _ in range(window + 1)]
        completion = array("q", bytes(8 * num_blocks))
        stalls = [0] * (2 * depth)
        heads = [0] * (depth - 1)
        fifo_peaks = [0] * (depth - 1)
        rf_peaks = [(0, 0)] * depth
        shifts: List[Optional[int]] = [None] * depth
        runs = [0] * depth
        log = self.fast_forward_events
        logged = len(log)
        block = 0
        while True:
            hist.insert(0, hist.pop())
            before = stalls[:]
            template.evaluate(hist, stalls)
            done = completion[block] = hist[0][template.completes] + template.alu
            template.fill_fifos(hist, block, heads, fifo_peaks)
            if self.fast_forward and block:
                template.track_shifts(hist, shifts, runs)
            # Two blocks in a row of one shift make the pair's peaks repeat;
            # writes after the last completion never happen.
            limit = done if block == last_block else _FOREVER
            for k in range(depth):
                if runs[k] < 2:
                    peaks = template.rf_peaks(k, hist[1::-1] if block else hist[:1], limit)
                    rf_peaks[k] = max(rf_peaks[k][0], peaks[0]), max(rf_peaks[k][1], peaks[1])
            if block == last_block:
                break
            if min(runs) >= window:
                steady = len(set(shifts)) == 1
                blocks = last_block - block
                if not steady:
                    blocks = min(blocks, template.ramp_limit(hist, shifts))
                if blocks:
                    period = shifts[-1]
                    completion[block + 1:block + blocks + 1] = array(
                        "q", range(done + period, done + (blocks + 1) * period, period)
                    )
                    stalls = [now + blocks * (now - then) for now, then in zip(stalls, before)]
                    template.shift(hist, shifts, blocks)
                    log.append({
                        "kind": "steady" if steady else "ramp",
                        "cycle": done + 1,
                        "completed": block + 1,
                        "period": period,
                        "blocks": 1,
                        "periods": blocks,
                    })
                    block += blocks
                    heads = [0] * (depth - 1)
                    template.fill_fifos(hist, block, heads, fifo_peaks)
                    if block == last_block:
                        break
            block += 1

        done = completion[last_block]
        if done > max_cycles:
            raise SimulationError(
                f"simulation of {schedule.kernel_name!r} on "
                f"{schedule.overlay.name} exceeded {max_cycles} cycles; "
                "likely a schedule/codegen deadlock"
            )
        rf_depth, frame = template.rf_limits
        for k, (peak, block_peak) in enumerate(rf_peaks):
            if peak > rf_depth or block_peak > frame:
                raise SimulationError(
                    f"register file {f'FU{k}.rf'!r} overflows: peak {peak} "
                    f"entries (physical {rf_depth}), per-block peak "
                    f"{block_peak} (frame {frame})"
                )
        return _LaneTiming(
            completion_cycles=completion,
            total_cycles=done + 1,
            measured_ii=_steady_state_ii(completion),
            fu_stats=template.counters(hist, stalls, num_blocks, done),
            fifo_high_water=(
                (num_blocks * template.loads[0],)
                + tuple(fifo_peaks)
                + (num_blocks * template.emitted,)
            ),
            rf_high_water=tuple(peak for peak, _ in rf_peaks),
            rf_per_block_high_water=tuple(block_peak for _, block_peak in rf_peaks),
            events=tuple(tuple(event.items()) for event in log[logged:]),
        )


def _functional_outputs(dfg, blocks: List[List[int]]) -> List[List[int]]:
    """Output rows exactly as the cycle simulator's datapath produces them.

    Operation results are wrapped by the opcode semantics, and the output
    words an input feeds straight through are wrapped by the evaluator, as
    the PASS slots that carry them to the output FIFO wrap them.
    """
    return stream_evaluator(dfg).run(blocks)
