"""CLI <-> API parity: each subcommand parses into the same spec objects
the programmatic session API takes."""

import json

import pytest

from repro.cli import (
    build_parser,
    main,
    overlay_spec_from_args,
    sim_spec_from_args,
    sweep_spec_from_args,
)
from repro.specs import OverlaySpec, SimSpec, SweepSpec


class TestOverlayArgParity:
    def test_map_defaults_parse_to_default_spec(self):
        args = build_parser().parse_args(["map", "--kernel", "gradient"])
        assert overlay_spec_from_args(args) == OverlaySpec("v1")

    def test_map_depth_parses_into_spec(self):
        args = build_parser().parse_args(
            ["map", "--kernel", "gradient", "--variant", "v3", "--depth", "6"]
        )
        assert overlay_spec_from_args(args) == OverlaySpec("v3", depth=6)

    def test_depth_default_is_none_not_zero(self):
        args = build_parser().parse_args(["simulate", "--kernel", "gradient"])
        assert args.depth is None
        assert overlay_spec_from_args(args).depth is None


class TestSimArgParity:
    def test_simulate_args_parse_into_sim_spec(self):
        args = build_parser().parse_args(
            [
                "simulate", "--kernel", "gradient", "--blocks", "16",
                "--seed", "3", "--engine", "fast",
            ]
        )
        assert sim_spec_from_args(args) == SimSpec(engine="fast", num_blocks=16, seed=3)

    def test_trace_flag_lands_in_spec(self):
        args = build_parser().parse_args(
            ["simulate", "--kernel", "gradient", "--trace"]
        )
        assert sim_spec_from_args(args).trace is True

    def test_sweep_no_verify_lands_in_spec(self):
        args = build_parser().parse_args(["sweep", "--no-verify"])
        assert sim_spec_from_args(args).verify is False


class TestSweepSpecParity:
    def test_sweep_subcommand_builds_the_programmatic_spec(self):
        args = build_parser().parse_args(
            [
                "sweep", "--kernels", "gradient,qspline", "--variants", "v1,v3",
                "--depths", "0,8", "--blocks", "24", "--jobs", "2",
            ]
        )
        assert sweep_spec_from_args(args) == SweepSpec(
            kernels=("gradient", "qspline"),
            overlays=(
                OverlaySpec("v1"),
                OverlaySpec("v1", depth=8),
                OverlaySpec("v3"),
                OverlaySpec("v3", depth=8),
            ),
            sim=SimSpec(engine="fast", num_blocks=24),
            jobs=2,
        )

    def test_sweep_spec_round_trips_through_json(self):
        args = build_parser().parse_args(["sweep", "--kernels", "gradient"])
        spec = sweep_spec_from_args(args)
        assert SweepSpec.from_json(spec.to_json()) == spec


class TestJsonFlags:
    def test_kernels_json(self, capsys):
        assert main(["kernels", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in rows}
        assert "gradient" in names and "qspline" in names
        gradient = next(row for row in rows if row["name"] == "gradient")
        assert gradient["depth"] == 4 and gradient["ops"] == 11

    def test_kernels_text_output_unchanged(self, capsys):
        assert main(["kernels"]) == 0
        assert "gradient" in capsys.readouterr().out

    def test_variants_json(self, capsys):
        assert main(["variants", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert by_name["v3"]["write_back"] is True
        assert by_name["v2"]["lanes"] == 2

    def test_sweep_json_still_works(self, capsys):
        code = main(
            ["sweep", "--kernels", "gradient", "--variants", "v1", "--blocks",
             "8", "--jobs", "1", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["kernel"] == "gradient"
        assert rows[0]["matches_reference"] is True


class TestDepthSentinelRemoval:
    def test_explicit_depth_is_honored_by_simulate(self, capsys):
        code = main(
            ["simulate", "--kernel", "gradient", "--variant", "v1",
             "--depth", "6", "--blocks", "4"]
        )
        assert code == 0
        assert "reference OK" in capsys.readouterr().out

    def test_zero_depth_is_a_hard_error(self, capsys):
        code = main(["map", "--kernel", "gradient", "--depth", "0"])
        assert code == 2
        assert "depth" in capsys.readouterr().err
