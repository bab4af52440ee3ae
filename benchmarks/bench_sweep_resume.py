"""Cold-vs-resumed benchmark of store-backed sweeps (the PR 6 gate).

The scenario is the robustness tentpole's payoff: a full library x (v1, v3)
sweep run twice against the same :class:`~repro.engine.store.ResultStore`.
Cold simulates every point and persists each row; the resumed run serves the
whole grid from the store without simulating anything.

``test_sweep_resume_speedup_gate`` measures both passes, records the
``sweep_resume_speedup`` metric into ``BENCH_results.json``, asserts the
acceptance gate (resume ≥ 5x faster than cold) and writes the raw
cold/resumed seconds to ``results/sweep_resume.txt``.

Both runs use ``jobs=1`` and a private session with its own in-memory
compile cache so the gate measures the store, not process-pool startup or
compile caching.
"""

import dataclasses
import time

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import clear_timing_memo
from repro.engine.store import ResultStore
from repro.engine.sweep import build_grid, run_sweep
from repro.kernels.library import kernel_names
from repro.specs import OverlaySpec, SimSpec

#: Every library kernel on one critical-path overlay and one fixed-depth
#: write-back overlay — the same two scheduler families the compile-path
#: bench exercises.
VARIANTS = ("v1", "v3")

#: The acceptance criterion: a fully-resumed grid must be at least this
#: many times faster than the cold run that produced the store.
MIN_RESUME_SPEEDUP = 5.0


def _grid():
    return build_grid(
        kernel_names(),
        overlays=[OverlaySpec(variant=v) for v in VARIANTS],
        sim=SimSpec(engine="fast", num_blocks=16),
    )


def _timed_sweep(store):
    start = time.perf_counter()
    rows = run_sweep(_grid(), jobs=1, toolchain=Toolchain(ScheduleCache()), store=store)
    return rows, time.perf_counter() - start


def _rows_modulo_wallclock(rows):
    return [
        {k: v for k, v in dataclasses.asdict(r).items()
         if k not in ("elapsed_s", "attempts")}
        for r in rows
    ]


def test_sweep_resume_speedup_gate(tmp_path, record_metric, save_result):
    """Cold store-backed sweep, then a pure-lookup resume; gate the ratio."""
    store_dir = str(tmp_path / "store")
    # Cold means every lane is timed: the timing memo is process-wide and keyed
    # by schedule content, so an earlier bench's runs would otherwise serve
    # this grid's lanes.
    clear_timing_memo()
    cold_rows, cold_s = _timed_sweep(ResultStore(store_dir))
    assert len(ResultStore(store_dir)) == len(cold_rows)

    resumed_store = ResultStore(store_dir)
    resumed_rows, resumed_s = _timed_sweep(resumed_store)
    # The resume must be pure lookups and row-for-row equal to the cold run.
    assert resumed_store.stats.hits == len(cold_rows)
    assert resumed_store.stats.writes == 0
    assert _rows_modulo_wallclock(resumed_rows) == _rows_modulo_wallclock(cold_rows)

    speedup = cold_s / resumed_s
    record_metric("sweep_resume_speedup", speedup)
    save_result(
        "sweep_resume",
        "\n".join(
            [
                f"points            : {len(cold_rows)}",
                f"cold sweep        : {cold_s * 1e3:8.1f} ms",
                f"resumed sweep     : {resumed_s * 1e3:8.1f} ms",
                f"speedup           : {speedup:8.1f}x  (gate: >= {MIN_RESUME_SPEEDUP:.0f}x)",
            ]
        ),
    )
    assert speedup >= MIN_RESUME_SPEEDUP, (
        f"resumed sweep only {speedup:.1f}x faster than cold "
        f"(gate {MIN_RESUME_SPEEDUP:.0f}x)"
    )
