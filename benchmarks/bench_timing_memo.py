"""Timing-memo gate: a repeated stream shape is not timed again.

A compiled kernel's lane timing depends on its schedule and the lane
length, never on the values streamed, so the engines keep lane timings by
schedule content and a repeated shape runs only its value plane and its
check.  The overlay service re-simulates the same compiled kernels at
the same length all day; this harness runs that shape: every library kernel
on V1-V5 at the default FIFO depth, ``NUM_BLOCKS`` blocks.

The gate times what the memo saves: each round, for every point and each of
its lane lengths (``split_lane_blocks``), ``FastSimulator._run_timing`` once
with the memo cleared (``clear_timing_memo``) and once more on the hit, each
from a collected heap.  A round yields one ratio: the misses' total over the
hits'.  The gate is on the **median of those per-round ratios**
(``MIN_LANE_SPEEDUP``), recorded as ``timing_memo_lane_speedup`` into
``BENCH_results.json``.

Each round also runs every point through a whole verified
``Toolchain.simulate`` call (``engine="fast"``, ``verify=True``) twice: a
first call with the memo cleared, then a second call on a new seed.  Their
median per-round ratio is recorded, ungated, as ``timing_memo_speedup``: a
hit there is mostly the seeded input draw, the value plane and the check,
which the memo does not touch.  A second call must measure exactly what the
first did (the memo changes no timing field) and still compute and check its
own stream's outputs.

The memo is keyed by what the block recurrence reads, not by schedule
object, and each kernel's ``StreamEvaluator`` lives in its graph's
``DFG.derived()``, which every copy shares.  A second gate counts what that
saves on the end-to-end benchmark's sweep-store cold grid (library x V1-V5
x FIFO depth 8 x four strategies, 64 blocks), run serially in one process
from a fresh compile cache, fresh library and frontend caches and an empty
memo: the recurrence must time lanes once per distinct timing key, fewer
times than there are feasible points, and one evaluator must be built per
kernel.  Both counts are recorded, as ``cold_grid_tick_loop_runs`` (a key
kept from the tick loop the recurrence replaced) and
``cold_grid_stream_evaluator_builds``.

A third gate runs that grid at ``jobs=2``, as sweep-store does, counting
across both worker lanes: lanes take whole kernels, so the first sweep times
fewer lanes than the 134 a shared pool did (at least one per distinct key)
and builds fewer than two evaluators per kernel, and the lanes send their
timings home, so a second sweep of the grid, on a fresh store and seed,
times none.  The counts are recorded as
``cold_grid_jobs2_tick_loop_runs``, ``cold_grid_jobs2_stream_evaluator_builds``
and ``cold_grid_jobs2_second_sweep_tick_loop_runs``.
"""

import gc
import multiprocessing
import statistics
import time

import pytest

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
#: The gate on lane timing, miss over hit: the median per-round ratio must
#: reach this factor.  Six runs of the gate alone on a shared 2-vCPU Xeon VM
#: (Python 3.11.7) gave medians of 44.5-69.1x (single rounds 29-98x), a full
#: ``benchmarks/bench_*.py`` run 26.0x (rounds 21.6-29.8x); a hit is a few
#: microseconds, so the ratio swings with the host and the heap.  10x is well under the lowest median
#: and far over the ~1x of a memo that saves nothing.  The whole-call ratio
#: read 2.81-3.01x in the same runs.
MIN_LANE_SPEEDUP = 10.0

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


def _timed_lane(simulator, length):
    gc.collect()
    started = time.perf_counter()
    simulator._run_timing(length)
    return time.perf_counter() - started


def _lane_timing_s(schedule):
    """Seconds of ``_run_timing`` over one point's lane lengths: (misses, hits)."""
    simulator = FastSimulator(schedule)
    miss_s = hit_s = 0.0
    for lane in split_lane_blocks([[]] * NUM_BLOCKS, schedule.variant.lanes):
        clear_timing_memo()
        miss_s += _timed_lane(simulator, len(lane))
        hit_s += _timed_lane(simulator, len(lane))
    return miss_s, hit_s


def test_timing_memo_speedup_gate(save_result, record_metric):
    toolchain = Toolchain(cache=ScheduleCache(capacity=256))
    handles = [
        toolchain.compile(name, OverlaySpec(variant=variant))
        for name in kernel_names()
        for variant in VARIANTS
    ]
    for handle in handles:  # warm imports and the scalar evaluators
        toolchain.simulate(handle, SimSpec(engine="fast", num_blocks=NUM_BLOCKS))
    lane_ratios, call_ratios = [], []
    for round_index in range(ROUNDS):
        miss_s = hit_s = first_s = second_s = 0.0
        for handle in handles:
            point_miss_s, point_hit_s = _lane_timing_s(handle.schedule)
            miss_s += point_miss_s
            hit_s += point_hit_s
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
        lane_ratios.append(miss_s / hit_s)
        call_ratios.append(first_s / second_s)

    lane_speedup = statistics.median(lane_ratios)
    call_speedup = statistics.median(call_ratios)
    save_result(
        "timing_memo",
        "\n".join([
            f"repeated stream shape: library x {'/'.join(VARIANTS)}, default FIFO depth, "
            f"{NUM_BLOCKS} blocks, {len(handles)} points, {ROUNDS} rounds",
            "  lane timing, per-round miss/hit     : "
            + ", ".join(f"{r:.1f}x" for r in lane_ratios),
            f"  median lane-timing speedup          : {lane_speedup:8.2f}x "
            f"(gate: >= {MIN_LANE_SPEEDUP}x)",
            "  verified fast simulate, first/second: "
            + ", ".join(f"{r:.2f}x" for r in call_ratios),
            f"  median whole-call speedup           : {call_speedup:8.2f}x (ungated)",
        ]),
    )
    record_metric("timing_memo_lane_speedup", lane_speedup)
    record_metric("timing_memo_speedup", call_speedup)
    assert lane_speedup >= MIN_LANE_SPEEDUP, (
        f"a memo hit only {lane_speedup:.2f}x faster than timing the lanes "
        f"(median of {ROUNDS} rounds, gate {MIN_LANE_SPEEDUP}x)"
    )


def _cold_grid(jobs, seed=0, store_dir=None):
    """The sweep-store cold grid as a sweep spec."""
    return SweepSpec(
        kernels=tuple(kernel_names()),
        overlays=tuple(
            OverlaySpec(variant=variant, fifo_depth=COLD_GRID_FIFO_DEPTH) for variant in VARIANTS
        ),
        sim=SimSpec(engine="fast", num_blocks=COLD_GRID_BLOCKS, seed=seed),
        schedulers=COLD_GRID_STRATEGIES, jobs=jobs, store_dir=store_dir,
    )


def _feasible_rows(toolchain, spec):
    rows = [row for row in toolchain.sweep(spec) if row.error is None]
    assert rows and all(row.matches_reference for row in rows)
    return rows


def _timing_keys(toolchain, rows):
    """Every feasible point's lanes, keyed as the memo keys them."""
    keys = set()
    for row in rows:
        overlay = OverlaySpec(
            variant=row.variant, fifo_depth=COLD_GRID_FIFO_DEPTH, scheduler=row.scheduler
        )
        schedule = toolchain.compile(row.kernel, overlay).schedule
        lanes = split_lane_blocks([[]] * COLD_GRID_BLOCKS, schedule.variant.lanes)
        keys.update((fastsim._timing_digest(schedule), len(lane)) for lane in lanes)
    return keys


def _fresh_caches():
    clear_kernel_cache()
    default_frontend_cache().clear()
    clear_timing_memo()


def test_cold_grid_times_each_shape_and_builds_each_evaluator_once(
    monkeypatch, save_result, record_metric
):
    _fresh_caches()
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
    rows = _feasible_rows(toolchain, _cold_grid(jobs=1))
    keys = _timing_keys(toolchain, rows)
    save_result(
        "timing_memo_cold_grid",
        "\n".join([
            f"sweep-store cold grid: library x {'/'.join(VARIANTS)} x FIFO depth "
            f"{COLD_GRID_FIFO_DEPTH} x {len(COLD_GRID_STRATEGIES)} strategies, "
            f"{COLD_GRID_BLOCKS} blocks, serial, one process",
            f"  feasible points         : {len(rows)}",
            f"  distinct timing keys    : {len(keys)}",
            f"  lane timings            : {len(ticks)}",
            f"  StreamEvaluator builds  : {len(builds)} ({len(kernel_names())} kernels)",
        ]),
    )
    record_metric("cold_grid_tick_loop_runs", len(ticks))
    record_metric("cold_grid_stream_evaluator_builds", len(builds))
    assert len(ticks) == len(keys) < len(rows), (
        f"{len(ticks)} lane timings for {len(keys)} timing keys over {len(rows)} points"
    )
    assert sorted(builds) == sorted(kernel_names())


def test_worker_lanes_time_each_shape_once_per_process_tree(
    monkeypatch, tmp_path, save_result, record_metric
):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the parent's timing memo only when forked")
    _fresh_caches()
    # Shared counters, patched in before the lanes fork, count across workers.
    ticks = multiprocessing.Value("i", 0)
    builds = multiprocessing.Value("i", 0)
    time_lane = FastSimulator._time_lane
    build = StreamEvaluator.__init__

    def counting_time_lane(self, num_blocks, max_cycles):
        with ticks.get_lock():
            ticks.value += 1
        return time_lane(self, num_blocks, max_cycles)

    def counting_build(self, dfg):
        with builds.get_lock():
            builds.value += 1
        build(self, dfg)

    monkeypatch.setattr(FastSimulator, "_time_lane", counting_time_lane)
    monkeypatch.setattr(StreamEvaluator, "__init__", counting_build)

    toolchain = Toolchain(cache=ScheduleCache(capacity=1024))
    rows = _feasible_rows(toolchain, _cold_grid(2, seed=1, store_dir=str(tmp_path / "first")))
    first_ticks, first_builds = ticks.value, builds.value
    ticks.value = builds.value = 0
    # A fresh store and seed, as each sweep-store round runs the cold grid.
    again = _feasible_rows(toolchain, _cold_grid(2, seed=2, store_dir=str(tmp_path / "second")))
    second_ticks = ticks.value
    keys = _timing_keys(toolchain, rows)
    save_result(
        "timing_memo_cold_grid_lanes",
        "\n".join([
            f"sweep-store cold grid, {len(rows)} feasible points, {len(keys)} distinct "
            f"timing keys, jobs=2, counted across both workers:",
            f"  first sweep  : {first_ticks} lane timings, {first_builds} "
            f"StreamEvaluator builds ({len(kernel_names())} kernels)",
            f"  second sweep : {second_ticks} lane timings (fresh store, new seed)",
        ]),
    )
    record_metric("cold_grid_jobs2_tick_loop_runs", first_ticks)
    record_metric("cold_grid_jobs2_stream_evaluator_builds", first_builds)
    record_metric("cold_grid_jobs2_second_sweep_tick_loop_runs", second_ticks)
    assert len(again) == len(rows)
    # Lanes that steal a kernel's last points at the tail may time a few
    # shapes twice; a worker per point, as a shared pool deals them, timed
    # 134-143 and built every evaluator on both workers.
    assert len(keys) <= first_ticks < 134, (
        f"{first_ticks} lane timings for {len(keys)} timing keys across two lanes"
    )
    assert first_builds < 2 * len(kernel_names()), f"{first_builds} StreamEvaluator builds"
    assert second_ticks == 0, (
        f"the second sweep timed {second_ticks} lanes: the lanes' timings did not come home"
    )
