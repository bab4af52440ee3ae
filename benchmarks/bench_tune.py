"""Auto-tuner harness: improvement gate + triage-throughput gate.

Two jobs, mirroring the promise ``repro/tune.py`` makes:

* **Improvement gate** — for every library kernel, ``Toolchain.tune``
  (analytic triage over the variant x scheduler cross product, top-6
  frontier simulated) must choose a configuration whose *measured* II is,
  on average, no worse than simulating the default ``OverlaySpec()``
  (auto-sized V1, ``auto`` strategy) — the config a user gets without the
  tuner.  Recorded as ``tune_ii_improvement`` (baseline mean II / tuned
  mean II, >= 1.0 when the tuner wins).
* **Triage-throughput gate** — the whole point of model-based triage is
  that ranking a candidate is orders of magnitude cheaper than measuring
  it.  On precompiled handles (compilation cost is shared by both paths),
  the analytic model must evaluate at least ``MIN_TRIAGE_SPEEDUP`` (20x)
  more configs per second than the fast engine simulates.  Recorded as
  ``tune_triage_speedup``.
* **Store-scaling gate** — a warm tune with a closed-form model reads
  only its frontier's rows from the result store, so its cost must not
  grow with the rows the store holds.  The same warm ``analytic`` tunes
  run against a store and against a copy padded to ``PAD_FACTOR`` (5x)
  the rows, in interleaved rounds; the median padded time over the median
  unpadded time must stay within ``MAX_STORE_SCALING`` (1.5x).  Recorded
  as ``tune_store_scaling``.
"""

import gc
import statistics
import time
from dataclasses import replace

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import clear_timing_memo
from repro.engine.store import ResultStore
from repro.engine.sweep import build_grid, run_sweep
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.kernels import kernel_names
from repro.metrics.models import get_model
from repro.schedule.registry import scheduler_names
from repro.specs import OverlaySpec, SimSpec, TuneSpec

#: Stream length for every measurement (matches the fidelity suite).
SIM = SimSpec(engine="fast", num_blocks=12)

#: Simulation budget per kernel for the improvement gate.
BUDGET = 6

#: Gate: analytic triage throughput over fast-engine simulation throughput.
MIN_TRIAGE_SPEEDUP = 20.0

#: Timing samples (best-of squeezes out scheduler noise).
SAMPLES = 5

#: Store-scaling gate: the padded store holds this many times the rows.
PAD_FACTOR = 5

#: Gate: median warm-tune time on the padded store over the unpadded one.
MAX_STORE_SCALING = 1.5

#: Interleaved rounds of the store-scaling gate, one timing per store each.
ROUNDS = 7


def _best_of(fn, samples=SAMPLES) -> float:
    best = float("inf")
    for _ in range(samples):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_tuner_beats_the_default_config(record_metric, save_result):
    """Mean measured II of tuner-chosen configs <= the auto-default mean."""
    toolchain = Toolchain(cache=ScheduleCache())
    lines = [f"{'kernel':10s} {'auto II':>8s} {'tuned II':>9s}  chosen"]
    baseline_iis, tuned_iis = [], []
    for kernel in kernel_names():
        handle = toolchain.compile(
            kernel, OverlaySpec(), allow_schedule_only=True
        )
        baseline = toolchain.simulate(handle, SIM)
        assert baseline.measured_ii is not None, kernel

        result = toolchain.tune(kernel, budget=BUDGET, jobs=1, sim=SIM)
        best = result.best
        assert best is not None and best.simulated, kernel

        baseline_iis.append(baseline.measured_ii)
        tuned_iis.append(best.measured_ii)
        chosen = (
            f"{best.overlay.variant} depth={best.overlay.depth or 'auto'} "
            f"scheduler={best.overlay.scheduler}"
        )
        lines.append(
            f"{kernel:10s} {baseline.measured_ii:8.2f} "
            f"{best.measured_ii:9.2f}  {chosen}"
        )

    baseline_mean = sum(baseline_iis) / len(baseline_iis)
    tuned_mean = sum(tuned_iis) / len(tuned_iis)
    improvement = baseline_mean / tuned_mean

    record_metric("tune_ii_improvement", improvement)
    save_result(
        "tune_improvement",
        f"tuner-chosen vs auto-default measured II (fast engine, "
        f"{SIM.num_blocks} blocks, budget {BUDGET}):\n"
        + "\n".join(lines)
        + f"\nmean II: auto-default {baseline_mean:.2f}, "
        f"tuned {tuned_mean:.2f} ({improvement:.2f}x)",
    )
    assert tuned_mean <= baseline_mean + 1e-9, (
        f"the tuner's mean measured II ({tuned_mean:.2f}) is worse than the "
        f"auto-default baseline ({baseline_mean:.2f}) — triage ranked the "
        "winning configs out of the frontier"
    )


def test_triage_throughput_beats_simulation(record_metric, save_result):
    """Analytic triage evaluates >= 20x more configs/s than simulation."""
    toolchain = Toolchain(cache=ScheduleCache())
    model = get_model("analytic")

    # Precompile a realistic triage population: every kernel on two
    # variants under every concrete strategy.  Compilation cost is shared
    # by both paths, so the ratio isolates predict-vs-simulate.
    handles = []
    for kernel in kernel_names():
        for variant in ("v1", "v3"):
            for strategy in scheduler_names():
                if strategy == "auto":
                    continue
                spec = OverlaySpec(variant=variant, scheduler=strategy)
                try:
                    handles.append(
                        toolchain.compile(kernel, spec, allow_schedule_only=True)
                    )
                except (InfeasibleScheduleError, ConfigurationError):
                    continue
    assert len(handles) >= 20

    def predict_pass():
        for handle in handles:
            model.predict(
                handle.dfg, handle.overlay, handle.schedule,
                sim=SIM, scheduler=handle.spec.scheduler,
            )

    def simulate_pass():
        for handle in handles:
            # Every config ticks its own loop: it would otherwise read the
            # lane timing an earlier pass, or an earlier config of equal
            # schedule content (the memo is keyed by content), left.
            clear_timing_memo()
            toolchain.simulate(handle, SIM)

    predict_pass()  # warm any lazy imports before timing
    simulate_pass()
    predict_s = _best_of(predict_pass) / len(handles)
    simulate_s = _best_of(simulate_pass) / len(handles)
    speedup = simulate_s / predict_s

    record_metric("tune_triage_speedup", speedup)
    save_result(
        "tune_triage",
        "\n".join(
            [
                f"analytic triage vs fast-engine simulation, best of "
                f"{SAMPLES} passes over {len(handles)} precompiled configs "
                f"({SIM.num_blocks} blocks):",
                f"  model.predict   : {predict_s * 1e6:9.2f} us/config",
                f"  fast simulation : {simulate_s * 1e6:9.2f} us/config",
                f"  speedup         : {speedup:9.1f}x "
                f"(gate: >= {MIN_TRIAGE_SPEEDUP:.0f}x)",
            ]
        ),
    )
    assert speedup >= MIN_TRIAGE_SPEEDUP, (
        f"analytic triage is only {speedup:.1f}x faster than simulation "
        f"(gate: {MIN_TRIAGE_SPEEDUP:.0f}x) — the model is doing "
        "simulation-scale work per config"
    )


def _timed_run(fn) -> float:
    # Start every run from a collected heap, so a collection of an earlier
    # run's garbage never lands in this one's timing.
    gc.collect()
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_warm_tunes_do_not_scale_with_the_store(tmp_path, record_metric, save_result):
    """Warm analytic tunes cost the same against a store 5x larger."""
    variants, strategies = ("v1", "v3", "v5"), ("linear", "clustered")
    grid = build_grid(
        kernel_names(),
        overlays=[OverlaySpec(variant) for variant in variants],
        schedulers=strategies,
        sim=SIM,
    )
    small, padded = ResultStore(str(tmp_path / "small")), ResultStore(str(tmp_path / "padded"))
    rows = run_sweep(grid, jobs=1, store=small)
    # The padded store holds the same rows, plus each row again under
    # other sim seeds: valid entries that no tune below asks for.
    for point, row in zip(grid, rows):
        for offset in range(PAD_FACTOR):
            padding = replace(point, sim=replace(point.sim, seed=point.sim.seed + offset))
            padded.put(padded.key_for(padding), padding, row)
    assert len(padded) >= PAD_FACTOR * len(small)

    toolchain = Toolchain(cache=ScheduleCache())

    def tunes(store):
        specs = [
            TuneSpec(
                kernel=kernel, variants=variants, schedulers=strategies,
                objective=objective, budget=3, jobs=1, sim=SIM, store_dir=store.root,
            )
            for kernel in kernel_names()
            for objective in ("ii", "gops", "latency")
        ]
        return lambda: [toolchain.tune(spec=spec) for spec in specs]

    runs = {small.root: tunes(small), padded.root: tunes(padded)}
    for run in runs.values():  # compile and predict every candidate once
        run()
    times = {root: [] for root in runs}
    for round_index in range(ROUNDS):
        order = list(runs) if round_index % 2 == 0 else list(reversed(runs))
        for root in order:
            times[root].append(_timed_run(runs[root]))
    small_s, padded_s = (statistics.median(times[root]) for root in runs)
    scaling = padded_s / small_s

    record_metric("tune_store_scaling", scaling)
    save_result(
        "tune_store_scaling",
        "\n".join(
            [
                f"warm analytic tunes (every kernel x 3 objectives, "
                f"{len(variants)} variants x {len(strategies)} strategies, budget 3), "
                f"{ROUNDS} interleaved rounds, medians:",
                f"  store of {len(small):4d} rows : {small_s * 1e3:8.2f} ms",
                f"  store of {len(padded):4d} rows : {padded_s * 1e3:8.2f} ms",
                f"  scaling            : {scaling:8.2f}x (gate: <= {MAX_STORE_SCALING}x)",
            ]
        ),
    )
    assert scaling <= MAX_STORE_SCALING, (
        f"warm analytic tunes took {scaling:.2f}x as long against a store "
        f"{len(padded) / len(small):.0f}x larger (gate {MAX_STORE_SCALING}x) — "
        "a tune reads rows its model does not use"
    )
