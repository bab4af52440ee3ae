"""Before/after benchmark of the fast simulation engine on the Fig. 5 sweep.

The Fig. 5 scalability question — how do the overlays behave as the cascade
grows from the shallowest to the deepest benchmark kernel — is re-asked here
with *simulation* instead of the analytic models: every library kernel is
compiled and streamed on the V1 and V2 overlays (the critical-path sweep
spans depths 4..13).  The same grid runs once on the cycle-accurate
reference simulator and once on the event-driven engine; the two wall-clock
numbers land in ``BENCH_results.json`` side by side, which is the
before/after table for the engine work, and the harness asserts that the
engines produce identical measurements while the fast engine delivers a
multi-x speedup.

The fast engine memoises lane timings process-wide, keyed by schedule
content, and the cross-check's fast sweep repeats the grid the benchmarked
one ran, so each timed fast sweep starts from an empty memo
(``clear_timing_memo``): it ticks each distinct lane timing once, sharing
one only between the equal lanes of a V2 point or points of equal schedule
content, as any fresh fast run does.
"""

import time

from repro.engine.fastsim import clear_timing_memo
from repro.engine.sweep import build_grid, run_sweep
from repro.specs import OverlaySpec, SimSpec

#: One streamed block count for the whole grid: long enough that the
#: steady-state fast-forward dominates, short enough for CI.
SWEEP_BLOCKS = 512

MEASURED_FIELDS = ("measured_ii", "latency_cycles", "total_cycles")


_OVERLAYS = (OverlaySpec("v1"), OverlaySpec("v2"))


def _grid(engine: str):
    return build_grid(
        overlays=_OVERLAYS, sim=SimSpec(engine=engine, num_blocks=SWEEP_BLOCKS)
    )


def _warm_compile_cache():
    """Compile every grid point once so neither timed run pays cache misses.

    Both engines share the process-wide compile cache; whichever sweep runs
    first would otherwise absorb all scheduling/codegen time and skew the
    before/after comparison, which is meant to measure *engine* speed.
    """
    run_sweep(
        build_grid(overlays=_OVERLAYS, sim=SimSpec(engine="fast", num_blocks=1)),
        jobs=1,
    )


def test_fig5_sim_sweep_cycle_engine(benchmark):
    """Baseline: the full simulated scalability sweep on the cycle engine."""
    _warm_compile_cache()
    results = benchmark.pedantic(
        run_sweep, args=(_grid("cycle"),), kwargs={"jobs": 1}, rounds=1, iterations=1
    )
    assert all(r.matches_reference for r in results)


def test_fig5_sim_sweep_fast_engine(benchmark):
    """The same sweep on the event-driven engine (the 'after' number)."""
    _warm_compile_cache()
    clear_timing_memo()
    results = benchmark.pedantic(
        run_sweep, args=(_grid("fast"),), kwargs={"jobs": 1}, rounds=1, iterations=1
    )
    assert all(r.matches_reference for r in results)


def test_engines_identical_and_fast_engine_wins(save_result):
    """Cross-check the sweep results and record the per-point speedup table."""
    _warm_compile_cache()
    started = time.perf_counter()
    cycle_results = run_sweep(_grid("cycle"), jobs=1)
    cycle_elapsed = time.perf_counter() - started

    clear_timing_memo()
    started = time.perf_counter()
    fast_results = run_sweep(_grid("fast"), jobs=1)
    fast_elapsed = time.perf_counter() - started

    lines = [
        f"{'kernel':10s} {'overlay':8s} {'meas II':>8s} {'cycle s':>9s} "
        f"{'fast s':>9s} {'speedup':>8s}"
    ]
    for cycle_point, fast_point in zip(cycle_results, fast_results):
        for field in MEASURED_FIELDS:
            assert getattr(fast_point, field) == getattr(cycle_point, field), (
                cycle_point.kernel,
                cycle_point.overlay_name,
                field,
            )
        ratio = cycle_point.elapsed_s / max(fast_point.elapsed_s, 1e-9)
        lines.append(
            f"{cycle_point.kernel:10s} {cycle_point.overlay_name:8s} "
            f"{cycle_point.measured_ii:8.2f} {cycle_point.elapsed_s:9.4f} "
            f"{fast_point.elapsed_s:9.4f} {ratio:8.1f}"
        )
    total_speedup = cycle_elapsed / max(fast_elapsed, 1e-9)
    lines.append(
        f"\ntotal: cycle {cycle_elapsed:.3f}s vs fast {fast_elapsed:.3f}s "
        f"-> {total_speedup:.1f}x ({SWEEP_BLOCKS} blocks/point)"
    )
    save_result("engine_speedup", "\n".join(lines))

    # Headline criterion is >= 5x; assert a conservative floor so a noisy CI
    # machine cannot flake the suite.
    assert total_speedup >= 2.0, f"fast engine only {total_speedup:.2f}x faster"
