"""Tests for the parallel sweep runner and the ``repro-overlay sweep`` CLI."""

import dataclasses
import json
import os

import pytest

from repro.api import Toolchain
from repro.cli import main
from repro.engine import fastsim, sweep
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import FastSimulator, clear_timing_memo
from repro.engine.store import ResultStore
from repro.engine.sweep import (
    SweepPoint,
    build_grid,
    render_sweep_table,
    results_to_json,
    run_point,
    run_sweep,
)
from repro.errors import ConfigurationError
from repro.kernels import get_kernel, kernel_names
from repro.metrics.performance import EVALUATION_VARIANTS, evaluate_kernel_all_overlays
from repro.specs import OverlaySpec, SimSpec, SweepSpec, TuneSpec

V1 = [OverlaySpec("v1")]
FAST8 = SimSpec(engine="fast", num_blocks=8)


class TestGridConstruction:
    def test_grid_crosses_all_dimensions(self):
        overlays = [
            OverlaySpec(variant, depth=depth)
            for variant in ("v1", "v2")
            for depth in (None, 8)
        ]
        grid = build_grid(kernels=["gradient", "qspline"], overlays=overlays)
        assert len(grid) == 8
        assert {p.kernel for p in grid} == {"gradient", "qspline"}
        assert {p.overlay.variant for p in grid} == {"v1", "v2"}
        assert [p.overlay for p in grid[:4]] == overlays  # kernel-major

    def test_default_grid_covers_the_library(self):
        grid = build_grid(overlays=[OverlaySpec("v1"), OverlaySpec("v2")])
        assert len(grid) == len(kernel_names()) * 2
        assert all(p.sim == SimSpec(engine="fast") for p in grid)
        assert [p.kernel for p in grid[::2]] == list(kernel_names())

    def test_scheduler_axis_is_innermost(self):
        grid = build_grid(
            ["gradient", "qspline"],
            overlays=[OverlaySpec("v3"), OverlaySpec("v4")],
            schedulers=["clustered", "modulo"],
        )
        assert [(p.kernel, p.overlay.variant, p.overlay.scheduler) for p in grid] == [
            (kernel, variant, scheduler)
            for kernel in ("gradient", "qspline")
            for variant in ("v3", "v4")
            for scheduler in ("clustered", "modulo")
        ]

    @pytest.mark.parametrize("schedulers", [None, ("linear", "clustered", "modulo", "auto")])
    def test_grid_is_the_kernel_overlay_scheduler_cross_product(self, schedulers):
        # Sweep-store's grid shape, against the cross product spelled out.
        sim = SimSpec(engine="fast", num_blocks=64, seed=1)
        overlays = [OverlaySpec(v, fifo_depth=8) for v in ("v1", "v2", "v3", "v4", "v5")]
        expected = [
            SweepPoint(kernel, OverlaySpec(overlay.variant, fifo_depth=8, scheduler=scheduler), sim)
            for kernel in kernel_names()
            for overlay in overlays
            for scheduler in (schedulers or ("auto",))
        ]
        assert build_grid(overlays=overlays, sim=sim, schedulers=schedulers) == expected

    def test_toolchain_sweep_runs_the_build_grid_points(self):
        spec = SweepSpec(
            kernels=("gradient", "qspline"),
            overlays=(OverlaySpec("v3"),),
            schedulers=("clustered", "modulo"),
            sim=SimSpec(engine="fast", num_blocks=4),
            jobs=1,
        )
        grid = build_grid(
            spec.kernels, overlays=spec.overlays, sim=spec.sim, schedulers=spec.schedulers
        )
        assert len(grid) == len(spec)
        by_spec = Toolchain(ScheduleCache()).sweep(spec)
        by_grid = run_sweep(grid, jobs=1, toolchain=Toolchain(ScheduleCache()))
        strip = lambda r: {k: v for k, v in r.as_row().items() if k != "elapsed_s"}
        assert [strip(r) for r in by_spec] == [strip(r) for r in by_grid]
        assert [r.scheduler for r in by_spec] == [p.overlay.scheduler for p in grid]


class TestRunPoint:
    def test_point_measures_ii_and_verifies(self):
        result = run_point(
            SweepPoint("gradient", OverlaySpec("v1"), SimSpec(engine="fast", num_blocks=16))
        )
        assert result.overlay_name == "V1x4"
        assert result.measured_ii == pytest.approx(result.analytic_ii)
        assert result.matches_reference is True
        assert result.throughput_gops > 0

    def test_fixed_depth_variant_auto_depth(self):
        result = run_point(SweepPoint("poly7", OverlaySpec("v3"), FAST8))
        assert result.overlay_depth == 8

    def test_engines_agree_on_a_point(self):
        fast = run_point(
            SweepPoint("mibench", OverlaySpec("v1"), SimSpec(engine="fast", num_blocks=24))
        )
        cycle = run_point(
            SweepPoint("mibench", OverlaySpec("v1"), SimSpec(engine="cycle", num_blocks=24))
        )
        assert fast.measured_ii == cycle.measured_ii
        assert fast.latency_cycles == cycle.latency_cycles
        assert fast.total_cycles == cycle.total_cycles


class TestRunSweep:
    def test_serial_sweep_preserves_grid_order(self):
        grid = build_grid(["gradient", "chebyshev"], overlays=V1, sim=FAST8)
        results = run_sweep(grid, jobs=1)
        assert [r.kernel for r in results] == ["gradient", "chebyshev"]
        assert all(r.matches_reference for r in results)

    def test_parallel_sweep_matches_serial(self):
        grid = build_grid(["gradient", "chebyshev"], overlays=V1, sim=FAST8)
        serial = run_sweep(grid, jobs=1)
        parallel = run_sweep(grid, jobs=2)
        for a, b in zip(serial, parallel):
            assert (a.kernel, a.measured_ii, a.latency_cycles, a.total_cycles) == (
                b.kernel,
                b.measured_ii,
                b.latency_cycles,
                b.total_cycles,
            )

    def test_rows_agree_with_the_evaluation_loop(self):
        # The paper's tables evaluate each kernel on every overlay in a plain
        # loop; a sweep over the same grid reports the same II and clock.
        names = ["gradient", "chebyshev"]
        grid = build_grid(
            names, overlays=[OverlaySpec(v) for v in EVALUATION_VARIANTS], sim=FAST8
        )
        rows = {(r.kernel, r.variant): r for r in run_sweep(grid, jobs=1)}
        for name in names:
            for variant, evaluated in evaluate_kernel_all_overlays(get_kernel(name)).items():
                row = rows[(name, variant)]
                assert row.analytic_ii == pytest.approx(evaluated.ii)
                assert row.fmax_mhz == pytest.approx(evaluated.fmax_mhz)
                assert row.overlay_depth == evaluated.overlay_depth

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep([SweepPoint("gradient", OverlaySpec("v1"), SimSpec(engine="warp"))])


@pytest.fixture(scope="module")
def refused_points():
    """Every library point on V3-V5 at depths 2-5 whose codegen the compiler
    refuses (the register file overflows): the session compiles each one to
    a schedule-only handle."""
    grid = build_grid(
        overlays=[OverlaySpec(v, depth=d) for v in ("v3", "v4", "v5") for d in (2, 3, 4, 5)],
        sim=FAST8,
    )
    toolchain = Toolchain(ScheduleCache(capacity=256))
    points = [
        point
        for point in grid
        if toolchain.compile(point.kernel, point.overlay, allow_schedule_only=True).schedule_only
    ]
    assert points
    return points


class TestOneCompilePath:
    """A sweep point compiles and simulates through the session, so every
    front door measures a point the same way."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "lanes"])
    def test_codegen_refusals_are_measured_as_evaluate_measures_them(self, refused_points, jobs):
        toolchain = Toolchain(ScheduleCache(capacity=256))
        rows = run_sweep(refused_points, jobs=jobs, toolchain=toolchain)
        for point, row in zip(refused_points, rows):
            assert (row.error, row.quarantined, row.attempts) == (None, False, 1), point
            evaluated = toolchain.evaluate(point.kernel, point.overlay, sim=point.sim)
            assert row.measured_ii == evaluated.measured_ii, point
            assert row.matches_reference is evaluated.reference_match is True, point

    def test_a_store_serves_codegen_refusals_on_resume(self, refused_points, tmp_path):
        toolchain = Toolchain(ScheduleCache(capacity=256))
        first = run_sweep(
            refused_points, jobs=1, toolchain=toolchain, store=ResultStore(str(tmp_path))
        )
        events = []
        second = run_sweep(
            refused_points,
            jobs=1,
            toolchain=toolchain,
            store=ResultStore(str(tmp_path)),
            progress=events.append,
        )
        assert len(events) == len(refused_points)
        assert all(event.cached for event in events)
        assert [_strip(row) for row in second] == [_strip(row) for row in first]

    def test_a_tune_simulates_a_codegen_refusal_on_its_frontier(self):
        toolchain = Toolchain(ScheduleCache(capacity=16))
        overlay = OverlaySpec("v3", depth=2, scheduler="clustered")
        assert toolchain.compile("qspline", overlay, allow_schedule_only=True).schedule_only
        spec = TuneSpec(
            kernel="qspline", variants=("v3",), depths=(2,), schedulers=("clustered",),
            budget=1, jobs=1, sim=FAST8,
        )
        [candidate] = toolchain.tune(spec=spec).candidates
        assert candidate.simulated and candidate.error is None
        evaluated = toolchain.evaluate("qspline", overlay, sim=FAST8)
        assert candidate.measured_ii == evaluated.measured_ii

    def test_a_strategy_that_fails_verification_is_a_stored_infeasible_row(
        self, unverified_strategy, tmp_path
    ):
        toolchain = Toolchain(ScheduleCache())
        spec = SweepSpec(
            kernels=("gradient",),
            overlays=(OverlaySpec("v1", scheduler=unverified_strategy),),
            sim=FAST8,
            jobs=1,
            store_dir=str(tmp_path),
        )
        [row] = toolchain.sweep(spec)
        assert "failed static verification" in (row.error or "")
        assert (row.infeasible, row.quarantined, row.attempts) == (True, False, 1)
        events = []
        toolchain.sweep(spec, progress=events.append)
        assert [event.cached for event in events] == [True]
        assert events[0].result.error == row.error

    def test_a_strategy_that_fails_verification_is_an_infeasible_tune_candidate(
        self, unverified_strategy
    ):
        spec = TuneSpec(
            kernel="gradient", variants=("v1",), schedulers=("linear", unverified_strategy),
            budget=2, jobs=1, sim=FAST8,
        )
        result = Toolchain(ScheduleCache()).tune(spec=spec)
        [bad] = [c for c in result.candidates if c.overlay.scheduler == unverified_strategy]
        assert "failed static verification" in (bad.error or "")
        assert not bad.simulated
        assert result.best.overlay.scheduler == "linear" and result.best.simulated


def _refuse_to_tick(self, num_blocks, max_cycles):
    raise AssertionError(f"ticked a {num_blocks}-block lane")


def _strip(row, ignore=("elapsed_s", "attempts", "engine")):
    return {k: v for k, v in dataclasses.asdict(row).items() if k not in ignore}


class TestWorkerLanes:
    """Lanes take whole kernels and send their lane timings home."""

    KERNELS = ["gradient", "chebyshev", "poly5"]

    def _grid(self, engine="fast", seed=0):
        return build_grid(
            self.KERNELS,
            overlays=[OverlaySpec("v1"), OverlaySpec("v2")],
            sim=SimSpec(engine=engine, num_blocks=16, seed=seed),
        )

    def test_the_parent_memo_keeps_what_the_workers_timed(self):
        run_sweep(self._grid(), jobs=2)
        pooled = len(fastsim._TIMINGS)
        clear_timing_memo()
        run_sweep(self._grid(), jobs=1)
        assert pooled == len(fastsim._TIMINGS) > 0

    def test_lanes_forked_from_a_warm_memo_equal_a_cycle_sweep(self, tmp_path, monkeypatch):
        run_sweep(self._grid(seed=1), jobs=2, store=ResultStore(str(tmp_path / "first")))
        with monkeypatch.context() as patch:
            # Lanes forked from here inherit the patch: a tick fails its point.
            patch.setattr(FastSimulator, "_time_lane", _refuse_to_tick)
            warm = run_sweep(
                self._grid(seed=2), jobs=2, retries=0, store=ResultStore(str(tmp_path / "second"))
            )
        cycle = run_sweep(self._grid("cycle", seed=2), jobs=2)
        assert not any(row.quarantined for row in warm)
        assert [_strip(row) for row in warm] == [_strip(row) for row in cycle]

    @pytest.mark.parametrize(
        "kernels, jobs", [(["gradient"], 2), (["gradient", "chebyshev"], 3)],
        ids=["one-kernel", "more-lanes-than-kernels"],
    )
    def test_rows_come_back_in_grid_order(self, kernels, jobs):
        grid = build_grid(
            kernels, overlays=[OverlaySpec("v1"), OverlaySpec("v2"), OverlaySpec("v3")], sim=FAST8
        )
        lanes = run_sweep(grid, jobs=jobs)
        serial = run_sweep(grid, jobs=1)
        assert [_strip(row) for row in lanes] == [_strip(row) for row in serial]

    @pytest.mark.parametrize("platform", ["affinity", "no-affinity"])
    def test_jobs_none_on_one_usable_cpu_starts_no_pool(self, monkeypatch, platform):
        if platform == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process with one usable CPU started a worker pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        rows = run_sweep(self._grid(), jobs=None)
        assert all(row.matches_reference for row in rows)


class TestSweepCLI:
    def test_sweep_json_smoke(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--kernels",
                "gradient,chebyshev",
                "--variants",
                "v1",
                "--blocks",
                "8",
                "--jobs",
                "1",
                "--json",
            ]
        )
        assert exit_code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["kernel"] for row in rows} == {"gradient", "chebyshev"}
        for row in rows:
            assert row["matches_reference"] is True
            assert row["engine"] == "fast"
            assert row["measured_ii"] > 0

    def test_sweep_table_smoke(self, capsys):
        exit_code = main(
            ["sweep", "--kernels", "gradient", "--variants", "v1,v2", "--blocks", "8",
             "--jobs", "1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "V1x4" in out and "V2x4" in out

    def test_sweep_rejects_unknown_kernel(self, capsys):
        exit_code = main(["sweep", "--kernels", "nonexistent", "--jobs", "1"])
        assert exit_code == 2

    def test_simulate_engine_flag(self, capsys):
        exit_code = main(
            ["simulate", "--kernel", "gradient", "--variant", "v1", "--blocks", "8",
             "--engine", "fast"]
        )
        assert exit_code == 0
        assert "II=6.00" in capsys.readouterr().out

    def test_sweep_store_progress_and_output(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        output = str(tmp_path / "rows.json")
        argv = [
            "sweep", "--kernels", "gradient", "--variants", "v1", "--blocks", "8",
            "--jobs", "1", "--store", store_dir, "--progress", "--output", output,
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[1/1] gradient V1x4 ok" in captured.err
        with open(output) as handle:
            rows = json.load(handle)
        assert rows[0]["kernel"] == "gradient"
        # Second run resumes from the store and says so.
        assert main(argv) == 0
        assert "[1/1] gradient V1x4 cached" in capsys.readouterr().err

    def test_sweep_retry_and_timeout_flags_parse(self, capsys, tmp_path):
        from repro.cli import sweep_spec_from_args

        argv = [
            "sweep", "--kernels", "gradient", "--variants", "v1", "--jobs", "1",
            "--retries", "5", "--timeout", "30", "--store", str(tmp_path),
            "--no-resume",
        ]
        assert main(argv) == 0
        # The flags land on the spec (parsed the same way _cmd_sweep does).
        import argparse

        parser_args = argparse.Namespace(
            kernels="gradient", variants="v1", depths="", schedulers="",
            blocks=12, seed=0, engine="fast",
            no_verify=False, jobs=1, retries=5, timeout=30.0,
            store=str(tmp_path), resume=False,
        )
        spec = sweep_spec_from_args(parser_args)
        assert spec.retries == 5
        assert spec.timeout_s == 30.0
        assert spec.store_dir == str(tmp_path)
        assert spec.resume is False


class TestRendering:
    def test_results_to_json_round_trips(self):
        results = run_sweep(
            build_grid(["gradient"], overlays=V1, sim=FAST8), jobs=1
        )
        rows = json.loads(results_to_json(results))
        assert rows[0]["kernel"] == "gradient"

    def test_render_table_contains_header_and_rows(self):
        results = run_sweep(
            build_grid(["gradient"], overlays=V1, sim=FAST8), jobs=1
        )
        table = render_sweep_table(results)
        assert "kernel" in table.splitlines()[0]
        assert "gradient" in table
