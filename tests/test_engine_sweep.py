"""Tests for the parallel sweep runner and the ``repro-overlay sweep`` CLI."""

import dataclasses
import json
import os

import pytest

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
    run_sweep_spec,
)
from repro.errors import ConfigurationError
from repro.kernels import get_kernel, kernel_names
from repro.metrics.performance import EVALUATION_VARIANTS, evaluate_kernel_all_overlays
from repro.specs import OverlaySpec, SimSpec, SweepSpec

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

    def test_run_sweep_spec_runs_the_build_grid_points(self):
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
        by_spec = run_sweep_spec(spec, cache=ScheduleCache())
        by_grid = run_sweep(grid, jobs=1, cache=ScheduleCache())
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
            store=str(tmp_path), resume=False, no_retry=False,
        )
        spec = sweep_spec_from_args(parser_args)
        assert spec.retries == 5
        assert spec.timeout_s == 30.0
        assert spec.store_dir == str(tmp_path)
        assert spec.resume is False

    def test_sweep_no_retry_flag_forces_zero_retries(self, tmp_path):
        import argparse

        from repro.cli import sweep_spec_from_args

        parser_args = argparse.Namespace(
            kernels="gradient", variants="v1", depths="", schedulers="",
            blocks=12, seed=0, engine="fast",
            no_verify=False, jobs=1, retries=4, timeout=None,
            store=None, resume=True, no_retry=True,
        )
        assert sweep_spec_from_args(parser_args).retries == 0


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
