"""Batched-engine gate: whole-loop codegen + lane batching vs the fast engine.

The batched engine's headline scenario is long-stream multi-lane sweeps on
the write-back overlays: timing is value-independent, so a lane-parallel
variant needs only one steady-state timing run per *distinct lane length*
(round-robin dealing yields at most two), while the value plane evaluates
the whole stream as vectorized numpy columns.  This harness runs exactly
that — deep kernels on dual-lane V3/V4/V5 at depth 8 — with both engines
for ``ROUNDS`` rounds.  Each round times every point on both engines, in
alternating order, and yields one ratio: the fast engine's total over the
batched engine's.  The gate is on the **median of those per-round ratios**
(``MIN_SPEEDUP``), which one slow round cannot move; the median is recorded
as ``batch_engine_speedup`` into ``BENCH_results.json`` next to the
wall-clock timings.

The two engines must also produce bit-identical results — the gate is only
meaningful if batching changes nothing observable.  (Requires numpy, the
``[batch]`` extra; the harness skips without it.)

The speedup gate leaves plan building out of its timing, so a second test
tracks what a plan costs: it builds a fresh ``BatchPlan`` for every point of
the end-to-end benchmark's sim-stream set-up grid (library x V1-V5 x FIFO
depth {2, 32}), records the generated line total (deterministic) as
``batch_plan_lines`` and the median build time per plan as
``batch_plan_build_ms``, and gates the line total.
"""

import dataclasses
import gc
import statistics
import time

import pytest

pytest.importorskip("numpy")

from repro.api import Toolchain
from repro.engine.batchsim import BatchPlan, BatchSimulator, generate_loop_source, plan_for
from repro.engine.cache import ScheduleCache, default_cache
from repro.engine.fastsim import FastSimulator
from repro.kernels import get_kernel, kernel_names
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import get_variant
from repro.specs import OverlaySpec

#: kernel x variant points of the multi-lane sweep: deep kernels where the
#: write-back overlays keep inter-stage FIFOs busy for thousands of cycles.
POINTS = (
    ("poly7", "v3"),
    ("poly7", "v4"),
    ("qspline", "v5"),
)
OVERLAY_DEPTH = 8
FIFO_DEPTH = 8
LANES = 2
#: Long-stream regime (the service/sweep workload the engine targets).
NUM_BLOCKS = 6000
#: The gate: the median per-round ratio must reach this factor.  Twelve
#: runs on a shared 2-vCPU Xeon VM (Python 3.11, numpy 2.4) gave medians of
#: 2.65-3.16x (single rounds 2.12-3.87x); 2.2x leaves a sixth of margin
#: below the lowest median.
MIN_SPEEDUP = 2.2
ROUNDS = 5

#: Plan-cost grid: the sim-stream set-up (every library kernel on V1-V5 at
#: FIFO depth 2 and 32, default strategy).
PLAN_VARIANTS = ("v1", "v2", "v3", "v4", "v5")
PLAN_FIFO_DEPTHS = (2, 32)
#: Gate on the generated line total over that grid: 150,710 lines when one
#: state sync each way was introduced (181,148 before), plus 2%.
MAX_PLAN_LINES = 153_724

COMPARED_FIELDS = (
    "outputs",
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "latency_cycles",
    "fu_stats",
    "fifo_high_water",
    "rf_high_water",
    "rf_per_block_high_water",
)


def _cases():
    cases = []
    for name, variant_name in POINTS:
        # Only stock V2 is dual-lane; the sweep's lane axis widens the
        # write-back variants the same way the paper scales throughput.
        variant = dataclasses.replace(get_variant(variant_name), lanes=LANES)
        dfg = get_kernel(name)
        overlay = LinearOverlay.fixed(variant, OVERLAY_DEPTH, fifo_depth=FIFO_DEPTH)
        schedule = default_cache().get_or_compile(dfg, overlay).schedule
        plan_for(schedule)  # loop codegen is a compile artifact, not runtime
        blocks = random_input_blocks(schedule.dfg, NUM_BLOCKS, seed=17)
        cases.append((name, variant_name, schedule, blocks))
    return cases


def _timed_run(simulator_class, schedule, blocks):
    # Start every run from a collected heap: otherwise a collection of the
    # previous run's garbage lands at random in a later run's timing.
    gc.collect()
    simulator = simulator_class(schedule)
    started = time.perf_counter()
    result = simulator.run(blocks)
    return time.perf_counter() - started, result


def test_batch_engine_speedup_gate(save_result, record_metric):
    cases = _cases()
    # Warm both code paths once; every timed run doubles as the
    # bit-identity cross-check.
    for _name, _variant, schedule, blocks in cases:
        FastSimulator(schedule).run(blocks)
        BatchSimulator(schedule).run(blocks)
    ratios = []
    for round_index in range(ROUNDS):
        fast_s = batched_s = 0.0
        order = (FastSimulator, BatchSimulator)
        if round_index % 2:
            order = order[::-1]
        for name, variant, schedule, blocks in cases:
            timed = {engine: _timed_run(engine, schedule, blocks) for engine in order}
            point_fast_s, fast = timed[FastSimulator]
            point_batched_s, batched = timed[BatchSimulator]
            fast_s += point_fast_s
            batched_s += point_batched_s
            for field in COMPARED_FIELDS:
                assert getattr(batched, field) == getattr(fast, field), (
                    f"{name}/{variant}: engines disagree on {field}"
                )
        ratios.append(fast_s / batched_s)

    speedup = statistics.median(ratios)
    lines = [
        f"long-stream multi-lane sweep: depth-{OVERLAY_DEPTH} V3-V5, "
        f"lanes={LANES}, fifo_depth={FIFO_DEPTH}, "
        f"{NUM_BLOCKS} blocks/point, {len(cases)} points, {ROUNDS} rounds",
        "  per-round fast/batched: " + ", ".join(f"{r:.2f}x" for r in ratios),
        f"  median speedup        : {speedup:8.2f}x (gate: >= {MIN_SPEEDUP}x)",
    ]
    save_result("batch_engine", "\n".join(lines))
    record_metric("batch_engine_speedup", speedup)
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine only {speedup:.2f}x faster than the fast engine "
        f"(median of {ROUNDS} rounds, gate {MIN_SPEEDUP}x) on the long-stream "
        "multi-lane sweep"
    )


def test_batch_plan_build_cost(save_result, record_metric):
    toolchain = Toolchain(cache=ScheduleCache(capacity=256))
    schedules = [
        toolchain.compile(name, OverlaySpec(variant=variant, fifo_depth=fifo_depth)).schedule
        for name in kernel_names()
        for variant in PLAN_VARIANTS
        for fifo_depth in PLAN_FIFO_DEPTHS
    ]
    lines = sum(generate_loop_source(schedule).count("\n") for schedule in schedules)
    build_ms = []
    for schedule in schedules:
        gc.collect()
        started = time.perf_counter()
        BatchPlan(schedule)  # a fresh plan: the plan_for memo is bypassed
        build_ms.append((time.perf_counter() - started) * 1e3)
    median_ms = statistics.median(build_ms)
    save_result(
        "batch_plan_cost",
        "\n".join([
            f"batched-engine plans: {len(schedules)} sim-stream set-up schedules "
            f"(library x {'/'.join(PLAN_VARIANTS)} x FIFO {PLAN_FIFO_DEPTHS})",
            f"  generated lines : {lines} (gate: <= {MAX_PLAN_LINES})",
            f"  build per plan  : median {median_ms:.1f} ms, "
            f"total {sum(build_ms) / 1e3:.2f} s",
        ]),
    )
    record_metric("batch_plan_lines", lines)
    record_metric("batch_plan_build_ms", median_ms)
    assert lines <= MAX_PLAN_LINES, (
        f"generated batched loops grew to {lines} lines over {len(schedules)} "
        f"schedules (gate {MAX_PLAN_LINES})"
    )
