"""Session-API overhead gate: the :class:`~repro.api.Toolchain` facade must
add no per-call work on the warm compile path.

The facade's warm ``compile`` does: one DFG content hash (to key its
resolved-overlay memo), one dictionary lookup (built overlay + precomputed
cache key), one keyed cache hit and one handle construction.  A raw warm
:meth:`~repro.engine.cache.ScheduleCache.get_or_compile` hit does: one DFG
content hash (inside ``CacheKey.for_mapping``) and one dictionary lookup.
Both are dominated by the content hash, so the facade stays within
``MAX_OVERHEAD_RATIO`` (1.2x) of the raw hit — that ratio is this bench's
acceptance gate, recorded as ``api_compile_overhead_ratio`` in
``BENCH_results.json``.  The gate reads the **median of ``ROUNDS``
per-round ratios**; each round times one raw and one facade run,
alternating which goes first, each from a collected heap.  A single
best-of-5 ratio swung from 0.60x to 1.35x between runs on a shared 2-vCPU
VM with the facade code unchanged.

A second metric (``api_evaluate_speedup``, informational) records how much
faster the memoised warm :meth:`~repro.api.Toolchain.evaluate` is than the
historical per-call analytic evaluation (resource estimate + ASAP levels on
fresh graph walks every call).
"""

import gc
import statistics
import time

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.kernels import get_kernel
from repro.metrics.performance import analytic_performance
from repro.specs import OverlaySpec

#: Warm-compile calls per timing sample.
CALLS = 2000

#: Timing samples per contender of the evaluate metric (the minimum is used).
SAMPLES = 5

#: Rounds of the compile gate, each one raw and one facade run.
ROUNDS = 9

#: The acceptance gate: warm facade compile vs raw warm cache hit.
MAX_OVERHEAD_RATIO = 1.2


def _best_of(fn, calls=CALLS, samples=SAMPLES) -> float:
    best = float("inf")
    for _ in range(samples):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - started)
    return best


def _timed_run(fn, calls=CALLS) -> float:
    # Start every run from a collected heap: otherwise a collection of the
    # previous run's garbage lands at random in a later run's timing.
    gc.collect()
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - started


def test_warm_compile_overhead_gate(record_metric, save_result):
    """Warm ``Toolchain.compile`` stays within 1.2x of a raw cache hit."""
    cache = ScheduleCache()
    toolchain = Toolchain(cache=cache)
    dfg = get_kernel("gradient")
    spec = OverlaySpec("v1")
    overlay = toolchain.compile(dfg, spec).overlay  # warm both paths

    def raw():
        return cache.get_or_compile(dfg, overlay)

    def api():
        return toolchain.compile(dfg, spec)

    ratios, raw_runs, api_runs = [], [], []
    for round_index in range(ROUNDS):
        order = (raw, api) if round_index % 2 == 0 else (api, raw)
        timed = {fn: _timed_run(fn) for fn in order}
        raw_runs.append(timed[raw])
        api_runs.append(timed[api])
        ratios.append(timed[api] / timed[raw])
    ratio = statistics.median(ratios)

    record_metric("api_compile_overhead_ratio", ratio)
    save_result(
        "api_overhead",
        "\n".join(
            [
                f"warm compile path, {ROUNDS} interleaved rounds x {CALLS} calls "
                "(gradient on V1x4), medians:",
                "  raw ScheduleCache.get_or_compile hit : "
                f"{statistics.median(raw_runs) / CALLS * 1e6:8.2f} us/call",
                "  Toolchain.compile (session facade)   : "
                f"{statistics.median(api_runs) / CALLS * 1e6:8.2f} us/call",
                "  per-round ratios                     : "
                + ", ".join(f"{r:.2f}x" for r in ratios),
                f"  median overhead ratio                : {ratio:8.3f}x "
                f"(gate: <= {MAX_OVERHEAD_RATIO}x)",
            ]
        ),
    )
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"warm Toolchain.compile is {ratio:.2f}x a raw cache hit (median of "
        f"{ROUNDS} rounds, gate {MAX_OVERHEAD_RATIO}x) — the facade grew per-call work"
    )


def test_warm_evaluate_memoisation(record_metric):
    """Warm ``Toolchain.evaluate`` beats re-running the analytic graph work."""
    toolchain = Toolchain(cache=ScheduleCache())
    handle = toolchain.compile(get_kernel("poly7"), OverlaySpec("v1"))
    toolchain.evaluate(handle)  # populate the spec-keyed memo

    recompute_s = _best_of(
        lambda: analytic_performance(handle.dfg, handle.overlay, handle.schedule),
        calls=200,
    )
    memoised_s = _best_of(lambda: toolchain.evaluate(handle), calls=200)
    speedup = recompute_s / memoised_s

    record_metric("api_evaluate_speedup", speedup)
    # The memoised path only copies a dataclass; it must not be slower than
    # redoing the resource/level/II analysis on every call.
    assert speedup >= 1.0
