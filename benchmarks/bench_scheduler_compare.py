"""Scheduler-strategy comparison harness and warm-compile regression gate.

Two jobs:

* **Strategy comparison** — compile every library kernel with each
  registered strategy on the paper's fixed depth-8 V3 overlay (plus the
  auto-sized V1 path where the strategy applies), measure II in the fast
  engine, and record the per-strategy mean II and throughput into
  ``BENCH_results.json`` (``scheduler_<name>_mean_ii`` /
  ``scheduler_<name>_mean_gops``).  This is the result class the paper only
  gestures at: the measured gap between the overlay's architecture-aware
  clustered schedules and classic iterative modulo scheduling, across the
  whole kernel library.
* **Regression gate** — threading the strategy through the compile path
  (spec field, cache key, registry dispatch) must not slow the *default*
  warm compile down: warm ``Toolchain.compile`` with the default ``auto``
  strategy stays within ``MAX_WARM_COMPILE_RATIO`` (1.1x) of a raw
  ``ScheduleCache`` hit — the PR 2/4 cached-baseline path.  Recorded as
  ``scheduler_warm_compile_ratio``.  The gate reads the **median of
  ``ROUNDS`` per-round ratios**; each round times one raw and one default
  run, alternating which goes first, each from a collected heap.  A single
  best-of-5 pair read 0.69x to 1.20x over eight runs on its own, and up to
  1.39x inside the full bench suite, on a shared 2-vCPU VM with the code
  unchanged.
"""

import gc
import statistics
import time

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.errors import InfeasibleScheduleError
from repro.kernels import get_kernel, kernel_names
from repro.metrics.performance import throughput_gops
from repro.overlay.resources import overlay_fmax_mhz
from repro.schedule import schedule_with, scheduler_names
from repro.sim.overlay import simulate_schedule
from repro.specs import OverlaySpec

#: Warm-compile calls per timed run.
CALLS = 2000

#: Rounds of the warm-compile gate, each one raw and one default run.
ROUNDS = 9

#: Gate: warm default-strategy compile vs the raw cached-baseline hit.
MAX_WARM_COMPILE_RATIO = 1.1

#: Blocks per measurement run (enough for a steady-state II).
NUM_BLOCKS = 8


def _timed_run(fn, calls=CALLS) -> float:
    # Start every run from a collected heap: otherwise a collection of the
    # previous run's garbage lands at random in a later run's timing.
    gc.collect()
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - started


def test_strategy_ii_comparison(record_metric, save_result):
    """Per-strategy measured II/throughput across the kernel library (V3x8)."""
    lines = [
        f"{'kernel':10s} " + " ".join(f"{name:>10s}" for name in scheduler_names()),
    ]
    per_strategy_ii = {name: [] for name in scheduler_names()}
    per_strategy_gops = {name: [] for name in scheduler_names()}
    for kernel_name in kernel_names():
        dfg = get_kernel(kernel_name)
        overlay = OverlaySpec(variant="v3").build_overlay(dfg)
        fmax = overlay_fmax_mhz(overlay.variant, overlay.depth)
        cells = []
        for strategy in scheduler_names():
            try:
                schedule = schedule_with(strategy, get_kernel(kernel_name), overlay)
            except InfeasibleScheduleError:
                cells.append(f"{'-':>10s}")
                continue
            result = simulate_schedule(
                schedule, num_blocks=NUM_BLOCKS, engine="fast"
            )
            assert result.matches_reference, (kernel_name, strategy)
            ii = result.measured_ii
            per_strategy_ii[strategy].append(ii)
            per_strategy_gops[strategy].append(
                throughput_gops(dfg.num_operations, ii, fmax)
            )
            cells.append(f"{ii:10.2f}")
        lines.append(f"{kernel_name:10s} " + " ".join(cells))

    for strategy in scheduler_names():
        iis = per_strategy_ii[strategy]
        if not iis:
            continue
        record_metric(
            f"scheduler_{strategy}_mean_ii", sum(iis) / len(iis)
        )
        gops = per_strategy_gops[strategy]
        record_metric(
            f"scheduler_{strategy}_mean_gops", sum(gops) / len(gops)
        )
    save_result(
        "scheduler_compare",
        "measured II per scheduling strategy (V3x8, fast engine, "
        f"{NUM_BLOCKS} blocks):\n" + "\n".join(lines),
    )


def test_default_warm_compile_regression_gate(record_metric, save_result):
    """The default strategy's warm compile stays <= 1.1x a raw cache hit."""
    cache = ScheduleCache()
    toolchain = Toolchain(cache=cache)
    dfg = get_kernel("gradient")
    spec = OverlaySpec("v1")
    overlay = toolchain.compile(dfg, spec).overlay  # warm both paths

    def raw():
        return cache.get_or_compile(dfg, overlay)

    def default():
        return toolchain.compile(dfg, spec)

    ratios, raw_runs, default_runs = [], [], []
    for round_index in range(ROUNDS):
        order = (raw, default) if round_index % 2 == 0 else (default, raw)
        timed = {fn: _timed_run(fn) for fn in order}
        raw_runs.append(timed[raw])
        default_runs.append(timed[default])
        ratios.append(timed[default] / timed[raw])
    ratio = statistics.median(ratios)

    record_metric("scheduler_warm_compile_ratio", ratio)
    save_result(
        "scheduler_warm_compile",
        "\n".join(
            [
                f"default-strategy warm compile, {ROUNDS} interleaved rounds x "
                f"{CALLS} calls (gradient on V1x4), medians:",
                "  raw cached-baseline hit        : "
                f"{statistics.median(raw_runs) / CALLS * 1e6:8.2f} us/call",
                "  Toolchain.compile (auto)       : "
                f"{statistics.median(default_runs) / CALLS * 1e6:8.2f} us/call",
                "  per-round ratios               : "
                + ", ".join(f"{r:.2f}x" for r in ratios),
                f"  median ratio                   : {ratio:8.3f}x "
                f"(gate: <= {MAX_WARM_COMPILE_RATIO}x)",
            ]
        ),
    )
    assert ratio <= MAX_WARM_COMPILE_RATIO, (
        f"the scheduler-keyed warm compile path is {ratio:.2f}x the cached "
        f"baseline (median of {ROUNDS} rounds, gate {MAX_WARM_COMPILE_RATIO}x) — "
        "strategy plumbing grew per-call work on the default path"
    )
