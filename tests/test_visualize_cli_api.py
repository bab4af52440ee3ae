"""Tests for visualisation helpers, the CLI and the top-level API."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.kernels import get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.schedule import schedule_kernel
from repro.visualize import clusters_to_dot, dfg_to_dot, schedule_listing


class TestVisualize:
    def test_dfg_to_dot(self, gradient):
        dot = dfg_to_dot(gradient)
        assert dot.startswith("digraph") and "->" in dot

    def test_clusters_to_dot_groups_fus(self, poly7):
        schedule = schedule_kernel(poly7, LinearOverlay.fixed("v3", 8))
        dot = clusters_to_dot(poly7, schedule.assignment)
        assert dot.count("subgraph cluster_") == 8
        assert "style=dashed" in dot

    def test_schedule_listing_shows_loads_and_slots(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel("v1", gradient))
        listing = schedule_listing(schedule)
        assert "loads (5)" in listing
        assert "SUB" in listing


class TestCLI:
    def test_parser_lists_subcommands(self):
        parser = build_parser()
        assert parser.prog == "repro-overlay"

    def test_kernels_command(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "gradient" in out and "qspline" in out

    def test_variants_command(self, capsys):
        assert main(["variants"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_map_command(self, capsys):
        assert main(["map", "--kernel", "gradient", "--variant", "v1", "--program"]) == 0
        out = capsys.readouterr().out
        assert "analytic II: 6" in out
        assert "FU0" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--kernel", "chebyshev", "--variant", "v1", "--blocks", "6"]) == 0
        out = capsys.readouterr().out
        assert "reference OK" in out

    def test_simulate_with_trace(self, capsys):
        code = main(
            ["simulate", "--kernel", "gradient", "--variant", "v1", "--trace",
             "--trace-cycles", "8", "--blocks", "4"]
        )
        assert code == 0
        assert "cyc" in capsys.readouterr().out

    def test_evaluate_command(self, capsys):
        assert main(["evaluate", "--kernel", "mibench"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "v4" in out

    def test_scalability_command(self, capsys):
        assert main(["scalability", "--variant", "v2", "--max-depth", "8"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_dot_command(self, capsys):
        assert main(["dot", "--kernel", "qspline", "--clusters", "--depth", "4"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dot_command_without_clusters(self, capsys):
        assert main(["dot", "--kernel", "gradient"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "gradient"')
        assert "cluster_" not in out

    def test_table3_command_prints_every_benchmark(self, capsys):
        from repro.kernels import TABLE3_BENCHMARKS

        assert main(["table3"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].startswith("Table III")
        for name in TABLE3_BENCHMARKS:
            assert any(row.split()[:1] == [name] for row in rows), name

    def test_cache_stats_command(self, capsys):
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "compiled-schedule cache:" in out
        assert "frontend cache (this process only):" in out

    def test_cache_clear_removes_the_disk_entries(self, capsys, monkeypatch, tmp_path):
        import repro.engine.cache as engine_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(engine_cache, "_DEFAULT_CACHE", None)
        repro.Toolchain().compile("gradient", repro.OverlaySpec("v1"))
        entries = list(tmp_path.glob("*.pkl"))
        assert entries
        assert main(["cache", "--clear"]) == 0
        assert list(tmp_path.glob("*.pkl")) == []
        assert f"{len(entries)} disk entries from {tmp_path}" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert repro.__version__ in capsys.readouterr().out


class TestServeCommand:
    def test_serve_answers_stats_and_stops_on_sigterm(self, capsys):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            line = server.stdout.readline().decode()
            assert "listening on" in line, line
            port = line.strip().rsplit(":", 1)[1]
            assert main(["stats", "--port", port]) == 0
            assert f"overlay service at 127.0.0.1:{port}" in capsys.readouterr().out
        finally:
            # SIGTERM: an inherited SIGINT may be ignored by the child.
            server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        assert server.returncode is not None


class TestTopLevelAPI:
    def test_compile_by_name(self):
        tc = repro.Toolchain()
        handle = tc.compile("gradient", repro.OverlaySpec("v1"))
        assert tc.evaluate(handle).ii == pytest.approx(6)
        assert tc.simulate(handle, repro.SimSpec(num_blocks=6)).matches_reference
        assert handle.configuration.size_bytes > 0

    def test_compile_custom_dfg(self):
        from repro.frontend import trace_kernel

        dfg = trace_kernel(lambda a, b: (a + b) * (a - b), name="custom")
        tc = repro.Toolchain()
        handle = tc.compile(dfg, repro.OverlaySpec("v1"))
        assert tc.simulate(handle, repro.SimSpec(num_blocks=4)).matches_reference

    def test_depth_override(self):
        handle = repro.Toolchain().compile("qspline", repro.OverlaySpec("v3", depth=4))
        assert handle.overlay.depth == 4
        assert handle.schedule.scheduler == "greedy"

    def test_default_fixed_depth_for_writeback(self):
        handle = repro.Toolchain().compile("poly6", repro.OverlaySpec("v4"))
        assert handle.overlay.depth == 8
        assert handle.overlay.fixed_depth
