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
"""

import gc
import statistics
import time

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import clear_timing_memo
from repro.kernels import kernel_names
from repro.specs import OverlaySpec, SimSpec

VARIANTS = ("v1", "v2", "v3", "v4", "v5")
#: The service's simulate requests stream 256 blocks.
NUM_BLOCKS = 256
ROUNDS = 7
#: The gate.  Five runs of seven rounds on a shared 2-vCPU Xeon VM
#: (Python 3.11) gave medians of 3.96-4.11x, and 3.77-3.86x when run after
#: the other benches; 3.0x leaves a fifth of margin below the lowest.
MIN_SPEEDUP = 3.0

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
