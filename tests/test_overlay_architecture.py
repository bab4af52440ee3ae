"""Tests for the linear overlay architecture description."""

import pytest

from repro.dfg.analysis import dfg_depth
from repro.errors import ConfigurationError, InfeasibleScheduleError
from repro.overlay.architecture import DEFAULT_FIXED_DEPTH, LinearOverlay
from repro.overlay.fu import V1, V2, V3
from repro.schedule import schedule_kernel


class TestConstruction:
    def test_for_kernel_matches_critical_path(self, gradient, qspline):
        assert LinearOverlay.for_kernel(V1, gradient).depth == 4
        assert LinearOverlay.for_kernel(V1, qspline).depth == 8

    def test_fixed_uses_paper_default_depth(self):
        overlay = LinearOverlay.fixed(V3)
        assert overlay.depth == DEFAULT_FIXED_DEPTH == 8
        assert overlay.fixed_depth

    def test_fixed_depth_requires_write_back(self):
        with pytest.raises(ConfigurationError):
            LinearOverlay.fixed(V1, 8)

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LinearOverlay(variant=V1, depth=0)

    def test_fifo_depth_checked(self):
        with pytest.raises(ConfigurationError):
            LinearOverlay(variant=V1, depth=4, fifo_depth=1)

    def test_default_name_includes_variant_and_depth(self):
        assert LinearOverlay(variant=V1, depth=6).name == "V1x6"

    def test_variant_accepts_string_names(self, gradient):
        overlay = LinearOverlay.for_kernel("v2", gradient)
        assert overlay.variant is V2


class TestDerivedQuantities:
    def test_dsp_count_scales_with_depth_and_lanes(self):
        assert LinearOverlay(variant=V1, depth=8).total_dsp_blocks == 8
        assert LinearOverlay(variant=V2, depth=8).total_dsp_blocks == 16

    def test_stream_width(self):
        assert LinearOverlay(variant=V2, depth=2).stream_width_bits == 64

    def test_depth_rule_is_enforced_by_the_scheduler(self, qspline, poly7):
        """A feed-forward overlay maps kernels up to its depth, and no deeper;
        a write-back overlay folds deeper kernels into its fixed depth."""
        v1_overlay = LinearOverlay(variant=V1, depth=8)
        assert dfg_depth(qspline) == 8
        assert schedule_kernel(qspline, v1_overlay, scheduler="linear").depth == 8
        with pytest.raises(InfeasibleScheduleError):
            schedule_kernel(poly7, v1_overlay, scheduler="linear")
        v3_overlay = LinearOverlay.fixed(V3, 8)
        assert dfg_depth(poly7) == 13
        assert schedule_kernel(poly7, v3_overlay).depth == 8

    def test_resized_copy(self):
        overlay = LinearOverlay(variant=V1, depth=4)
        bigger = overlay.resized(10)
        assert bigger.depth == 10
        assert overlay.depth == 4
        assert bigger.name == "V1x10"

    def test_describe_mentions_policy(self):
        assert "fixed depth" in LinearOverlay.fixed(V3).describe()
        assert "critical-path" in LinearOverlay(variant=V1, depth=4).describe()

    def test_for_kernel_rejects_empty_kernels(self):
        from repro.dfg.builder import DFGBuilder

        builder = DFGBuilder("empty")
        x = builder.input("x")
        builder.output(x)
        with pytest.raises(ConfigurationError):
            LinearOverlay.for_kernel(V1, builder.build(validate=False))
