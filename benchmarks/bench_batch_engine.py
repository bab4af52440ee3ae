"""Batched-engine gate: the numpy image value plane vs the scalar DFG plane.

``fast`` and ``batched`` time every lane with the same block recurrence
and the same lane-timing memo; what differs is the value plane.
``batched`` executes the compiled configuration image on numpy, once over
the whole stream, and ``fast`` evaluates the DFG one Python statement per
node and block.  Long streams on wide overlays are where that matters: this
harness runs deep kernels on dual-lane V3/V4/V5 at depth 8 with both
engines for ``ROUNDS`` rounds, unverified, so neither engine's reference
check is timed.  Each round times every point on both engines, in
alternating order, and yields one ratio: the fast engine's total over the
batched engine's.  The gate is on the **median of those per-round ratios**
(``MIN_SPEEDUP``), which one slow round cannot move; the median is recorded
as ``batch_engine_speedup`` into ``BENCH_results.json`` next to the
wall-clock timings.

Every timed run starts from an empty timing memo
(``fastsim.clear_timing_memo``), so both engines time their lanes instead
of reading a timing an earlier run (of either engine) left.

The two engines must also produce bit-identical results — the gate is only
meaningful if the value plane changes nothing observable.  (Requires numpy,
the ``[batch]`` extra; the harness skips without it.)

A second test records what the batched engine's per-schedule plan costs:
it builds a fresh ``VectorBlockEvaluator`` for every point of the
end-to-end benchmark's sim-stream set-up grid (library x V1-V5 x FIFO
depth {2, 32}) and records the median build time per plan as
``batch_plan_build_ms``.
"""

import dataclasses
import gc
import statistics
import time

import pytest

pytest.importorskip("numpy")

from repro.api import Toolchain
from repro.engine.batchsim import BatchSimulator, VectorBlockEvaluator, plan_for
from repro.engine.cache import ScheduleCache, default_cache
from repro.engine.fastsim import FastSimulator, clear_timing_memo
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
#: The gate: the median per-round ratio must reach this factor.  Six runs
#: on a shared 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6) gave medians of
#: 1.43-1.50x (single rounds 0.97-1.73x); 1.19x leaves a sixth of margin
#: below the lowest median.
MIN_SPEEDUP = 1.19
ROUNDS = 5

#: Plan-cost grid: the sim-stream set-up (every library kernel on V1-V5 at
#: FIFO depth 2 and 32, default strategy).
PLAN_VARIANTS = ("v1", "v2", "v3", "v4", "v5")
PLAN_FIFO_DEPTHS = (2, 32)

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
        plan_for(schedule)  # image codegen is a compile artifact, not runtime
        blocks = random_input_blocks(schedule.dfg, NUM_BLOCKS, seed=17)
        cases.append((name, variant_name, schedule, blocks))
    return cases


def _timed_run(simulator_class, schedule, blocks):
    # Start every run from a collected heap: otherwise a collection of the
    # previous run's garbage lands at random in a later run's timing.  And
    # from an empty timing memo: a repeated shape would skip the recurrence
    # both engines run.
    gc.collect()
    clear_timing_memo()
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
    build_ms = []
    for schedule in schedules:
        gc.collect()
        started = time.perf_counter()
        VectorBlockEvaluator(schedule)  # a fresh plan: the plan_for memo is bypassed
        build_ms.append((time.perf_counter() - started) * 1e3)
    median_ms = statistics.median(build_ms)
    save_result(
        "batch_plan_cost",
        "\n".join([
            f"batched-engine plans: {len(schedules)} sim-stream set-up schedules "
            f"(library x {'/'.join(PLAN_VARIANTS)} x FIFO {PLAN_FIFO_DEPTHS})",
            f"  build per plan  : median {median_ms:.1f} ms, "
            f"total {sum(build_ms) / 1e3:.2f} s",
        ]),
    )
    record_metric("batch_plan_build_ms", median_ms)
