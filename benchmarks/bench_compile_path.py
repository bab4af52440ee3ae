"""Cold-vs-warm benchmark of the compile path (the PR 2 acceptance gate).

The scenario is the one every sweep and table harness repeats: a
``Toolchain.compile`` (kernel lookup included) followed by
``Toolchain.evaluate`` for every library kernel on a critical-path V1
overlay and a fixed-depth V3 overlay.  Cold means every cache layer cleared —
the kernel library's built-DFG cache, the frontend cache (lowered DFGs)
and the compiled-schedule cache; warm means all of them populated by a prior
identical pass.

Four tests land in ``BENCH_results.json``:

* ``test_compile_path_cold``   — one full pass from cleared caches;
* ``test_compile_path_warm``   — ``WARM_ROUNDS`` passes on warm caches;
* ``test_compile_path_speedup`` — measures both itself, asserts the
  acceptance criterion (warm ≥ 5x faster than cold) and writes the
  cold/warm/speedup table to ``results/compile_path.txt``;
* ``test_optimizer_two_walk_speedup`` — the frontend layer's gate: the
  five-pass composition ``optimize`` used to run costs at least
  ``MIN_OPTIMIZER_SPEEDUP`` times the two-walk ``optimize`` on the same raw
  graphs (the median of ``OPTIMIZER_ROUNDS`` interleaved rounds, each run
  from a collected heap), recorded as ``optimizer_two_walk_speedup`` and
  appended to ``results/compile_path.txt``.
"""

import gc
import statistics
import time

import pytest

from repro.api import default_toolchain
from repro.dfg.transforms import (
    common_subexpression_elimination,
    constant_folding,
    dead_code_elimination,
    optimize,
    strength_reduce_squares,
)
from repro.engine.cache import default_cache
from repro.frontend.cache import default_frontend_cache
from repro.frontend.cparser import lower_c_kernel
from repro.kernels.generators import random_dfg
from repro.kernels.library import KERNEL_C_SOURCES, clear_kernel_cache, kernel_names
from repro.specs import OverlaySpec

#: The compile grid: every library kernel on one critical-path-depth overlay
#: and one fixed-depth write-back overlay (the two scheduler families).
VARIANTS = ("v1", "v3")

#: Warm passes per measurement (averaged), so dictionary-lookup-fast warm
#: times are measured above timer resolution.
WARM_ROUNDS = 5

#: Interleaved rounds of the optimizer gate, each one run of either side.
OPTIMIZER_ROUNDS = 7

#: Gate: the five-pass composition over the two-walk ``optimize``.
MIN_OPTIMIZER_SPEEDUP = 2.0

#: Sections of ``results/compile_path.txt``, by the test that measured them.
_REPORT = {}


def _save_report(save_result, section, text):
    """Write every section measured so far, in a fixed order."""
    _REPORT[section] = text
    order = ("compile", "optimizer")
    save_result("compile_path", "\n".join(_REPORT[name] for name in order if name in _REPORT))


@pytest.fixture(autouse=True)
def _no_disk_layer():
    """Measure in-memory compile cost only: a populated ``REPRO_CACHE_DIR``
    would serve the "cold" pass from disk pickles and corrupt the gate."""
    cache = default_cache()
    saved = cache.disk_dir
    cache.disk_dir = None
    try:
        yield
    finally:
        cache.disk_dir = saved


def _clear_all_caches():
    """Cold start: drop the library, frontend and compiled-schedule layers."""
    clear_kernel_cache()
    default_frontend_cache().clear()
    default_cache().clear()


def _compile_pass():
    """One full compile + evaluate sweep over the grid."""
    toolchain = default_toolchain()
    for name in kernel_names():
        for variant in VARIANTS:
            handle = toolchain.compile(name, OverlaySpec(variant))
            assert toolchain.evaluate(handle).ii > 0


def _timed_pass():
    start = time.perf_counter()
    _compile_pass()
    return time.perf_counter() - start


def _measure_cold_and_warm():
    _clear_all_caches()
    cold = _timed_pass()
    warm = min(_timed_pass() for _ in range(WARM_ROUNDS))
    return cold, warm


def test_compile_path_cold():
    """One full compile pass from completely cold caches."""
    _clear_all_caches()
    _compile_pass()
    stats = default_cache().stats
    assert stats.misses == len(kernel_names()) * len(VARIANTS)


def test_compile_path_warm():
    """WARM_ROUNDS passes on warm caches (duration ~ WARM_ROUNDS+1 passes)."""
    _compile_pass()  # self-sufficient warm-up when run in isolation
    for _ in range(WARM_ROUNDS):
        _compile_pass()
    assert default_cache().stats.hit_rate > 0.5


def test_compile_path_speedup(save_result):
    """The acceptance criterion: warm ≥ 5x faster than cold, recorded."""
    cold, warm = _measure_cold_and_warm()
    speedup = cold / warm if warm > 0 else float("inf")

    frontend = default_frontend_cache().stats
    backend = default_cache().stats
    lines = [
        "compile path: Toolchain.compile + evaluate over "
        f"{len(kernel_names())} kernels x {len(VARIANTS)} variants",
        f"  cold (all caches cleared) : {cold * 1e3:8.2f} ms",
        f"  warm (best of {WARM_ROUNDS})         : {warm * 1e3:8.2f} ms",
        f"  speedup                   : {speedup:8.1f}x  (gate: >= 5x)",
        f"  backend cache             : {backend.hits} hits, "
        f"{backend.misses} misses, {backend.hit_rate * 100:.1f}% hit rate",
        f"  frontend cache            : {frontend.summary()}",
    ]
    _save_report(save_result, "compile", "\n".join(lines))
    assert speedup >= 5.0, (
        f"warm compile path only {speedup:.1f}x faster than cold "
        f"(cold {cold * 1e3:.2f} ms, warm {warm * 1e3:.2f} ms)"
    )


def _five_passes(raw):
    """What ``optimize`` ran before the two walks (its reference)."""
    return dead_code_elimination(
        strength_reduce_squares(common_subexpression_elimination(constant_folding(raw)))
    )


def _timed_graphs(optimizer, graphs) -> float:
    # Start every run from a collected heap: otherwise a collection of the
    # previous run's garbage lands at random in a later run's timing.
    gc.collect()
    started = time.perf_counter()
    for raw in graphs:
        optimizer(raw)
    return time.perf_counter() - started


def test_optimizer_two_walk_speedup(record_metric, save_result):
    """The frontend gate: the five passes cost >= 2x the two walks."""
    graphs = [random_dfg(1 + seed % 5, 8 + seed % 25, seed=seed) for seed in range(400)]
    graphs += [
        lower_c_kernel(source, name=name, run_optimizer=False)
        for name, source in KERNEL_C_SOURCES.items()
    ]
    ratios, walks, passes = [], [], []
    for round_index in range(OPTIMIZER_ROUNDS):
        order = (optimize, _five_passes) if round_index % 2 == 0 else (_five_passes, optimize)
        timed = {fn: _timed_graphs(fn, graphs) for fn in order}
        walks.append(timed[optimize])
        passes.append(timed[_five_passes])
        ratios.append(timed[_five_passes] / timed[optimize])
    ratio = statistics.median(ratios)

    record_metric("optimizer_two_walk_speedup", ratio)
    per_graph = 1e6 / len(graphs)
    lines = [
        f"frontend optimizer: {len(graphs)} raw graphs (400 random_dfg + "
        f"{len(KERNEL_C_SOURCES)} library C sources), {OPTIMIZER_ROUNDS} "
        "interleaved rounds, medians:",
        f"  two-walk optimize         : {statistics.median(walks) * per_graph:8.2f} us/graph",
        f"  five-pass composition     : {statistics.median(passes) * per_graph:8.2f} us/graph",
        "  per-round ratios          : " + ", ".join(f"{r:.2f}x" for r in ratios),
        f"  median ratio              : {ratio:8.2f}x  (gate: >= {MIN_OPTIMIZER_SPEEDUP}x)",
    ]
    _save_report(save_result, "optimizer", "\n".join(lines))
    assert ratio >= MIN_OPTIMIZER_SPEEDUP, (
        f"the five-pass composition is only {ratio:.2f}x the two-walk optimize "
        f"(median of {OPTIMIZER_ROUNDS} rounds, gate {MIN_OPTIMIZER_SPEEDUP}x)"
    )
