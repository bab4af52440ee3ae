"""Timing-memo gate: a repeated stream shape skips the tick loop.

A compiled kernel's lane timing depends on its schedule and the lane
length, never on the values streamed, so the engines keep each schedule
object's lane timings and a repeated shape runs only its value plane and
its check.  The overlay service re-simulates the same compiled kernels at
the same length all day; this harness runs that shape: every library kernel
on V1-V5 at the default FIFO depth, ``NUM_BLOCKS`` blocks, ``engine="fast"``
with ``verify=True``.  Each round runs every point twice: a first call with
the memo cleared (``clear_timing_memo``), then a second call on a new seed,
each timed from a collected heap.  A round yields one ratio: the first
calls' total over the second calls'.  The gate is on the **median of those
per-round ratios** (``MIN_SPEEDUP``), recorded as ``timing_memo_speedup``
into ``BENCH_results.json``.

A second call must measure exactly what the first did (the memo changes no
timing field) and still compute and check its own stream's outputs.

The memo is keyed by what the tick loop reads, not by schedule object, and
each kernel's ``StreamEvaluator`` lives in its graph's ``DFG.derived()``,
which every copy shares.  A second gate counts what that saves on the
end-to-end benchmark's sweep-store cold grid (library x V1-V5 x FIFO depth
8 x four strategies, 64 blocks), run serially in one process from a fresh
compile cache, fresh library and frontend caches and an empty memo: the
tick loop must run once per distinct timing key, fewer times than there are
feasible points, and one evaluator must be built per kernel.  Both counts
are recorded as ``cold_grid_tick_loop_runs`` and
``cold_grid_stream_evaluator_builds``.
"""

import gc
import statistics
import time

from repro.api import Toolchain
from repro.engine import fastsim
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import FastSimulator, clear_timing_memo
from repro.frontend.cache import default_frontend_cache
from repro.kernels import kernel_names
from repro.kernels.library import clear_kernel_cache
from repro.kernels.reference import StreamEvaluator
from repro.sim.overlay import split_lane_blocks
from repro.specs import OverlaySpec, SimSpec, SweepSpec

VARIANTS = ("v1", "v2", "v3", "v4", "v5")
#: The service's simulate requests stream 256 blocks.
NUM_BLOCKS = 256
ROUNDS = 7
#: The gate.  Five runs of seven rounds on a shared 2-vCPU Xeon VM
#: (Python 3.11) gave medians of 3.96-4.11x, and 3.77-3.86x when run after
#: the other benches; 3.0x leaves a fifth of margin below the lowest.
MIN_SPEEDUP = 3.0

#: The end-to-end sweep-store workload's cold grid.
COLD_GRID_STRATEGIES = ("linear", "clustered", "modulo", "alap")
COLD_GRID_FIFO_DEPTH = 8
COLD_GRID_BLOCKS = 64

TIMING_FIELDS = (
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "latency_cycles",
    "fu_stats",
    "fifo_high_water",
    "rf_high_water",
    "rf_per_block_high_water",
)


def _timed(toolchain, handle, seed):
    gc.collect()
    started = time.perf_counter()
    result = toolchain.simulate(
        handle, SimSpec(engine="fast", num_blocks=NUM_BLOCKS, seed=seed, verify=True)
    )
    return time.perf_counter() - started, result


def test_timing_memo_speedup_gate(save_result, record_metric):
    toolchain = Toolchain(cache=ScheduleCache(capacity=256))
    handles = [
        toolchain.compile(name, OverlaySpec(variant=variant))
        for name in kernel_names()
        for variant in VARIANTS
    ]
    for handle in handles:  # warm imports and the scalar evaluators
        toolchain.simulate(handle, SimSpec(engine="fast", num_blocks=NUM_BLOCKS))
    ratios = []
    for round_index in range(ROUNDS):
        first_s = second_s = 0.0
        for handle in handles:
            clear_timing_memo()
            point_first_s, first = _timed(toolchain, handle, 2 * round_index + 1)
            point_second_s, second = _timed(toolchain, handle, 2 * round_index + 2)
            first_s += point_first_s
            second_s += point_second_s
            assert first.matches_reference and second.matches_reference
            assert second.outputs != first.outputs, handle.kernel_name
            for field in TIMING_FIELDS:
                assert getattr(second, field) == getattr(first, field), (
                    f"{handle.kernel_name}/{handle.overlay.name}: the memo changed {field}"
                )
        ratios.append(first_s / second_s)

    speedup = statistics.median(ratios)
    save_result(
        "timing_memo",
        "\n".join([
            f"repeated stream shape: library x {'/'.join(VARIANTS)}, default FIFO depth, "
            f"{NUM_BLOCKS} blocks, fast engine, verify=True, {len(handles)} points, "
            f"{ROUNDS} rounds",
            "  per-round first/second call: " + ", ".join(f"{r:.2f}x" for r in ratios),
            f"  median speedup             : {speedup:8.2f}x (gate: >= {MIN_SPEEDUP}x)",
        ]),
    )
    record_metric("timing_memo_speedup", speedup)
    assert speedup >= MIN_SPEEDUP, (
        f"a repeated stream shape only {speedup:.2f}x faster than a first call "
        f"(median of {ROUNDS} rounds, gate {MIN_SPEEDUP}x)"
    )


def test_cold_grid_times_each_shape_and_builds_each_evaluator_once(
    monkeypatch, save_result, record_metric
):
    clear_kernel_cache()
    default_frontend_cache().clear()
    clear_timing_memo()
    ticks, builds = [], []
    time_lane = FastSimulator._time_lane
    build = StreamEvaluator.__init__

    def counting_time_lane(self, num_blocks, max_cycles):
        ticks.append(num_blocks)
        return time_lane(self, num_blocks, max_cycles)

    def counting_build(self, dfg):
        builds.append(dfg.name)
        build(self, dfg)

    monkeypatch.setattr(FastSimulator, "_time_lane", counting_time_lane)
    monkeypatch.setattr(StreamEvaluator, "__init__", counting_build)

    toolchain = Toolchain(cache=ScheduleCache(capacity=1024))
    overlays = tuple(
        OverlaySpec(variant=variant, fifo_depth=COLD_GRID_FIFO_DEPTH) for variant in VARIANTS
    )
    spec = SweepSpec(
        kernels=tuple(kernel_names()), overlays=overlays,
        sim=SimSpec(engine="fast", num_blocks=COLD_GRID_BLOCKS),
        schedulers=COLD_GRID_STRATEGIES, jobs=1,
    )
    rows = [row for row in toolchain.sweep(spec) if row.error is None]
    assert rows and all(row.matches_reference for row in rows)

    # Every feasible point's lanes, keyed as the memo keys them.
    keys = set()
    for row in rows:
        overlay = OverlaySpec(
            variant=row.variant, fifo_depth=COLD_GRID_FIFO_DEPTH, scheduler=row.scheduler
        )
        schedule = toolchain.compile(row.kernel, overlay).schedule
        lanes = split_lane_blocks([[]] * COLD_GRID_BLOCKS, schedule.variant.lanes)
        keys.update((fastsim._timing_digest(schedule), len(lane)) for lane in lanes)
    save_result(
        "timing_memo_cold_grid",
        "\n".join([
            f"sweep-store cold grid: library x {'/'.join(VARIANTS)} x FIFO depth "
            f"{COLD_GRID_FIFO_DEPTH} x {len(COLD_GRID_STRATEGIES)} strategies, "
            f"{COLD_GRID_BLOCKS} blocks, serial, one process",
            f"  feasible points         : {len(rows)}",
            f"  distinct timing keys    : {len(keys)}",
            f"  tick-loop runs          : {len(ticks)}",
            f"  StreamEvaluator builds  : {len(builds)} ({len(kernel_names())} kernels)",
        ]),
    )
    record_metric("cold_grid_tick_loop_runs", len(ticks))
    record_metric("cold_grid_stream_evaluator_builds", len(builds))
    assert len(ticks) == len(keys) < len(rows), (
        f"{len(ticks)} tick-loop runs for {len(keys)} timing keys over {len(rows)} points"
    )
    assert sorted(builds) == sorted(kernel_names())
