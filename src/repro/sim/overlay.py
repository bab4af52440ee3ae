"""Whole-overlay simulation: FIFOs + FU cascade + measurement.

:class:`OverlaySimulator` wires a chain of :class:`~repro.sim.fu.FUSimulator`
objects together with :class:`~repro.sim.fifo.StreamFIFO` channels, streams a
sequence of input data blocks through, collects the output stream and
measures the quantities the paper reports:

* the **measured II** — steady-state spacing between consecutive output
  blocks (cross-checked against the analytic Eq. 1/Eq. 2 models);
* the **latency** — cycles from the start of the run until the first block's
  results have fully emerged;
* functional correctness against the golden reference model.

V2's replicated stream datapath is modelled at this level: the two 32-bit
lanes are two independent pipelines fed with alternating data blocks, so the
effective II halves while the latency of an individual block does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, SimulationError
from ..schedule.types import OverlaySchedule
from .fifo import StreamFIFO
from .fu import FUSimulator, FUStats
from .trace import TraceRecorder


@dataclass
class SimulationResult:
    """Everything a simulation run produced and measured."""

    kernel_name: str
    overlay_name: str
    num_blocks: int
    outputs: List[List[int]]
    completion_cycles: List[int]
    total_cycles: int
    #: Steady-state spacing between consecutive completions; None when the
    #: run was too short to measure one (fewer than two completed blocks).
    measured_ii: Optional[float]
    latency_cycles: int
    fu_stats: List[FUStats] = field(default_factory=list)
    fifo_high_water: List[int] = field(default_factory=list)
    rf_high_water: List[int] = field(default_factory=list)
    rf_per_block_high_water: List[int] = field(default_factory=list)
    reference_outputs: Optional[List[List[int]]] = None
    trace: Optional[TraceRecorder] = None

    @property
    def matches_reference(self) -> Optional[bool]:
        """True/False once a reference has been attached, else None."""
        if self.reference_outputs is None:
            return None
        return self.outputs == self.reference_outputs

    def summary(self) -> str:
        check = {True: "OK", False: "MISMATCH", None: "not checked"}[self.matches_reference]
        ii = "n/a" if self.measured_ii is None else f"{self.measured_ii:.2f}"
        return (
            f"{self.kernel_name} on {self.overlay_name}: {self.num_blocks} blocks in "
            f"{self.total_cycles} cycles, II={ii}, "
            f"latency={self.latency_cycles} cycles, reference {check}"
        )


class OverlaySimulator:
    """Cycle-accurate simulator for one scheduled kernel on one overlay."""

    def __init__(
        self,
        schedule: OverlaySchedule,
        record_trace: bool = False,
        max_cycles: Optional[int] = None,
    ):
        self.schedule = schedule
        self.record_trace = record_trace
        self.max_cycles = max_cycles

    # ------------------------------------------------------------------
    def run(self, input_blocks: Sequence[Sequence[int]]) -> SimulationResult:
        """Stream ``input_blocks`` through the overlay and measure the run."""
        blocks = check_input_blocks(self.schedule, input_blocks)
        if self.schedule.variant.lanes > 1:
            return self._run_multilane(blocks)
        return self._run_single_lane(blocks)

    # ------------------------------------------------------------------
    # single lane
    # ------------------------------------------------------------------
    def _run_single_lane(self, blocks: List[List[int]]) -> SimulationResult:
        schedule = self.schedule
        dfg = schedule.dfg
        num_blocks = len(blocks)
        depth = schedule.depth

        recorder = TraceRecorder(dfg=dfg) if self.record_trace else None

        # FIFO channels: unbounded input (fed by DMA), bounded inter-stage
        # channels, unbounded output collector.
        fifos: List[StreamFIFO] = [StreamFIFO(name="input", capacity=0)]
        for k in range(1, depth):
            fifos.append(StreamFIFO(name=f"ch{k}", capacity=schedule.overlay.fifo_depth))
        output_fifo = StreamFIFO(name="output", capacity=0)
        fifos.append(output_fifo)

        fus: List[FUSimulator] = []
        for k in range(depth):
            constants = {
                const_id: dfg.node(const_id).value
                for const_id in schedule.constants_used(k)
            }
            fus.append(
                FUSimulator(
                    stage=schedule.stage(k),
                    variant=schedule.variant,
                    dfg=dfg,
                    in_fifo=fifos[k],
                    out_fifo=fifos[k + 1],
                    num_blocks=num_blocks,
                    constants=constants,
                    recorder=recorder,
                )
            )

        # Pre-load the input stream: one token per primary input per block, in
        # the stage-0 arrival order.
        input_positions = {node.node_id: i for i, node in enumerate(dfg.inputs())}
        stage0_order = schedule.stage(0).load_order
        for block_index, block in enumerate(blocks):
            for value_id in stage0_order:
                fifos[0].push((block_index, value_id, int(block[input_positions[value_id]])))

        expected_per_block = len(schedule.stage(depth - 1).emission_order)
        if expected_per_block == 0:
            raise SimulationError("the final stage emits nothing; schedule is broken")

        collected: Dict[int, Dict[int, int]] = {b: {} for b in range(num_blocks)}
        completion_cycles: List[Optional[int]] = [None] * num_blocks
        max_cycles = self.max_cycles or default_max_cycles(schedule, num_blocks)

        cycle = 0
        while any(c is None for c in completion_cycles):
            if cycle > max_cycles:
                raise SimulationError(
                    f"simulation of {schedule.kernel_name!r} on "
                    f"{schedule.overlay.name} exceeded {max_cycles} cycles; "
                    "likely a schedule/codegen deadlock"
                )
            # Deliver results whose ALU latency elapsed, upstream to downstream.
            for k in range(depth):
                for token in fus[k].collect_outputs(cycle):
                    fifos[k + 1].push(token)
                    if k == depth - 1:
                        block_index, value_id, value = token
                        collected[block_index][value_id] = value
                        if (
                            len(collected[block_index]) >= expected_per_block
                            and completion_cycles[block_index] is None
                        ):
                            completion_cycles[block_index] = cycle
            for fu in fus:
                fu.tick(cycle)
            cycle += 1

        outputs = self._decode_outputs(collected, num_blocks)
        for fu in fus:
            fu.rf.check_capacity(strict=True)

        completion = [int(c) for c in completion_cycles]  # type: ignore[arg-type]
        return SimulationResult(
            kernel_name=schedule.kernel_name,
            overlay_name=schedule.overlay.name,
            num_blocks=num_blocks,
            outputs=outputs,
            completion_cycles=completion,
            total_cycles=cycle,
            measured_ii=_steady_state_ii(completion),
            latency_cycles=completion[0] + 1,
            fu_stats=[fu.stats for fu in fus],
            fifo_high_water=[f.high_water_mark for f in fifos],
            rf_high_water=[fu.rf.high_water_mark for fu in fus],
            rf_per_block_high_water=[fu.rf.per_block_high_water_mark for fu in fus],
            trace=recorder,
        )

    # ------------------------------------------------------------------
    # V2: two independent lanes with alternating blocks
    # ------------------------------------------------------------------
    def _run_multilane(self, blocks: List[List[int]]) -> SimulationResult:
        lane_results: List[Optional[SimulationResult]] = [
            self._run_single_lane(stream) if stream else None
            for stream in split_lane_blocks(blocks, self.schedule.variant.lanes)
        ]
        return merge_lane_results(self.schedule, blocks, lane_results)

    # ------------------------------------------------------------------
    def _decode_outputs(
        self, collected: Dict[int, Dict[int, int]], num_blocks: int
    ) -> List[List[int]]:
        dfg = self.schedule.dfg
        outputs: List[List[int]] = []
        for block_index in range(num_blocks):
            values = collected[block_index]
            row: List[int] = []
            for output in dfg.outputs():
                source = output.operands[0]
                if source not in values:
                    raise SimulationError(
                        f"block {block_index}: output {output.name} (value N{source}) "
                        "never reached the output FIFO"
                    )
                row.append(values[source])
            outputs.append(row)
        return outputs


def check_input_blocks(
    schedule: OverlaySchedule, input_blocks: Sequence[Sequence[int]]
) -> List[List[int]]:
    """The input stream as a list of lists, each as wide as the kernel has
    inputs.

    A list block is passed through as it is, since no engine writes to a
    block; any other block is copied into a list.  Every engine's ``run``
    starts here, so all three reject a bad stream with the same
    :class:`~repro.errors.SimulationError`, naming its first bad block.
    """
    blocks = [block if type(block) is list else list(block) for block in input_blocks]
    if not blocks:
        raise SimulationError("at least one input block is required")
    width = schedule.dfg.num_inputs
    lengths = list(map(len, blocks))
    if lengths.count(width) != len(lengths):
        index = next(i for i, length in enumerate(lengths) if length != width)
        raise SimulationError(
            f"input block {index} has {lengths[index]} values, kernel "
            f"{schedule.kernel_name!r} expects {width}"
        )
    return blocks


def default_max_cycles(schedule: OverlaySchedule, num_blocks: int) -> int:
    """Deadlock guard shared by every engine.

    Generous bound on a healthy run: every block can spend a full issue
    window per stage plus pipeline slack before the run is declared wedged.
    """
    per_block = schedule.total_instruction_slots + schedule.total_loads + 16
    return (num_blocks + schedule.depth + 4) * per_block + 1000


def split_lane_blocks(blocks: List[List[int]], lanes: int) -> List[List[List[int]]]:
    """Deal an input stream onto V2-style replicated lanes (round-robin)."""
    return [blocks[lane::lanes] for lane in range(lanes)]


def merge_lane_results(
    schedule: OverlaySchedule,
    blocks: List[List[int]],
    lane_results: Sequence[Optional[SimulationResult]],
) -> SimulationResult:
    """Combine per-lane results of a replicated-datapath (V2) run.

    Outputs and completion cycles interleave back into global block order.
    Each lane is a physically replicated pipeline with its own FIFOs and
    register files, so the activity/stall counters *add up* across lanes
    while the high-water marks (capacity-sizing questions: how deep must a
    channel or RF be) take the per-lane *maximum*.
    """
    lanes = schedule.variant.lanes
    num_blocks = len(blocks)
    # Round-robin dealing gave lane ``lane`` every ``lanes``-th block from
    # ``lane`` on, so each lane's rows fill exactly that slice.
    outputs: List[List[int]] = [[]] * num_blocks
    completion: List[int] = [0] * num_blocks
    for lane, result in enumerate(lane_results):
        if result is not None:
            outputs[lane::lanes] = result.outputs
            completion[lane::lanes] = result.completion_cycles

    active = [result for result in lane_results if result is not None]
    primary = lane_results[0]
    assert primary is not None
    fu_stats = [
        FUStats(
            loads_issued=sum(r.fu_stats[k].loads_issued for r in active),
            instructions_issued=sum(r.fu_stats[k].instructions_issued for r in active),
            nops_issued=sum(r.fu_stats[k].nops_issued for r in active),
            exec_stall_cycles=sum(r.fu_stats[k].exec_stall_cycles for r in active),
            load_stall_cycles=sum(r.fu_stats[k].load_stall_cycles for r in active),
            backpressure_stall_cycles=sum(
                r.fu_stats[k].backpressure_stall_cycles for r in active
            ),
        )
        for k in range(len(primary.fu_stats))
    ]
    merged_sorted = sorted(completion)
    return SimulationResult(
        kernel_name=schedule.kernel_name,
        overlay_name=schedule.overlay.name,
        num_blocks=num_blocks,
        outputs=outputs,
        completion_cycles=completion,
        total_cycles=max(r.total_cycles for r in active),
        measured_ii=_steady_state_ii(merged_sorted),
        latency_cycles=completion[0] + 1,
        fu_stats=fu_stats,
        fifo_high_water=[
            max(r.fifo_high_water[i] for r in active)
            for i in range(len(primary.fifo_high_water))
        ],
        rf_high_water=[
            max(r.rf_high_water[i] for r in active)
            for i in range(len(primary.rf_high_water))
        ],
        rf_per_block_high_water=[
            max(r.rf_per_block_high_water[i] for r in active)
            for i in range(len(primary.rf_per_block_high_water))
        ],
        trace=primary.trace,
    )


def _steady_state_ii(completion_cycles: Sequence[int]) -> Optional[float]:
    """Average spacing between consecutive block completions in steady state.

    An initiation interval is the spacing between *consecutive* completions,
    so a run with fewer than two completed blocks has no measurable II and
    yields ``None`` (callers report it as unmeasured or fall back to the
    analytic model) rather than a number that is really the latency.

    The pipeline-fill transient is skipped: the mean covers the second half
    of the ``n - 1`` deltas, from delta ``m = (n - 1) // 2`` on.  Their sum
    telescopes to ``c[-1] - c[m]``, the same int the deltas add up to, so
    the result is the same float in O(1).
    """
    count = len(completion_cycles)
    if count < 2:
        return None
    first = (count - 1) // 2
    return (completion_cycles[-1] - completion_cycles[first]) / (count - 1 - first)


def simulate_schedule(
    schedule: OverlaySchedule,
    input_blocks: Optional[Sequence[Sequence[int]]] = None,
    num_blocks: int = 12,
    seed: int = 0,
    record_trace: bool = False,
    verify: bool = True,
    engine: str = "cycle",
) -> SimulationResult:
    """Convenience wrapper: simulate a schedule and verify against the reference.

    When ``input_blocks`` is omitted a deterministic random stream of
    ``num_blocks`` blocks is generated; a stream that is not a list or a
    tuple (an iterator, a generator) is listed once, so the engine and the
    check read the same blocks.  With ``verify=True`` the golden
    reference outputs are attached to the result so
    :attr:`SimulationResult.matches_reference` is populated.

    ``engine`` selects the simulation core: ``"cycle"`` is this module's
    cycle-accurate value-level simulator (the golden reference);  ``"fast"``
    is the event-driven engine of :mod:`repro.engine.fastsim`, which produces
    an identical :class:`SimulationResult` (asserted across the whole kernel
    library by the equivalence test suite) an order of magnitude faster;
    ``"batched"`` (:mod:`repro.engine.batchsim`) is the fast engine, same
    timing recurrence and same timing memo, with a value plane that
    executes the compiled configuration image on numpy; it is bit-identical
    to the other two on correctly encoded artifacts and faster again on
    long streams.
    Trace recording needs per-cycle value-level events, so ``record_trace``
    always uses the cycle engine.

    The check has one rule for every engine.  When the process has already
    loaded numpy (:func:`~repro.kernels.reference.numpy_loaded`), it
    evaluates the DFG on numpy (``reference_outputs(..., vectorized=True)``),
    which falls back to the scalar ``StreamEvaluator`` where numpy is not
    exact (an input outside int32); otherwise it runs the scalar evaluator.
    The check never imports numpy, so a process that runs only ``cycle``
    and ``fast`` never does.  A batched run hands the check the ``int64``
    array its value plane made of the stream, so the stream is converted
    once.

    What the ``matches_reference`` check can catch depends on the engine.
    ``cycle`` runs the schedule's slots on value ids and ``fast``
    reconstructs its outputs from a DFG evaluation, so neither can catch a
    codegen fault (a word that reads the wrong register), and ``fast``'s
    check cannot catch a *timing* bug either; the guarantee for ``fast``
    is the exact-equivalence suite against ``cycle``
    (``tests/test_engine_equivalence.py``).  On the numpy plane ``fast``'s
    check compares two implementations of the DFG's semantics; on the
    scalar plane it re-runs the evaluator its value plane ran.
    ``batched`` computes its outputs from the instruction words, so its
    check also catches a codegen fault that changes a value.
    """
    from ..kernels.reference import random_input_blocks

    if engine not in ("cycle", "fast", "batched"):
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; "
            "available: 'cycle', 'fast', 'batched'"
        )
    if input_blocks is None:
        input_blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    elif not isinstance(input_blocks, (list, tuple)):
        input_blocks = list(input_blocks)
    inputs = None
    if engine == "batched" and not record_trace:
        from ..engine.batchsim import BatchSimulator

        simulator = BatchSimulator(schedule)
        result = simulator.run(input_blocks)
        inputs = simulator.inputs
    elif engine == "fast" and not record_trace:
        from ..engine.fastsim import FastSimulator

        result = FastSimulator(schedule).run(input_blocks)
    else:
        result = OverlaySimulator(schedule, record_trace=record_trace).run(input_blocks)
    if verify:
        from ..kernels.reference import numpy_loaded, reference_outputs

        result.reference_outputs = reference_outputs(
            schedule.dfg, input_blocks, vectorized=numpy_loaded(), inputs=inputs
        )
    return result
