"""Tests for the calibrated resource / Fmax model (paper Fig. 5, Section V)."""

import pytest

from repro.errors import ConfigurationError
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V1, V2, V3, V4
from repro.overlay.resources import (
    PAPER_DEPTH8_FMAX,
    PAPER_DEPTH8_SLICES,
    ZYNQ_XC7Z020_DSP_BLOCKS,
    ZYNQ_XC7Z020_LOGIC_SLICES,
    estimate_resources,
    overlay_fmax_mhz,
    overlay_slices,
    scalability_sweep,
)


class TestCalibrationPoints:
    @pytest.mark.parametrize("variant,expected", list(PAPER_DEPTH8_SLICES.items()))
    def test_depth8_slice_counts_match_paper(self, variant, expected):
        assert overlay_slices(variant, 8) == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("variant,expected", list(PAPER_DEPTH8_FMAX.items()))
    def test_depth8_fmax_matches_paper(self, variant, expected):
        assert overlay_fmax_mhz(variant, 8) == pytest.approx(expected, rel=0.01)

    def test_depth8_v1_overlay_is_below_5_percent_utilisation(self):
        resources = estimate_resources(LinearOverlay(variant=V1, depth=8))
        assert resources.slice_utilisation < 0.05
        assert resources.dsp_utilisation < 0.05

    def test_depth8_v2_overlay_is_below_8_percent_utilisation(self):
        resources = estimate_resources(LinearOverlay(variant=V2, depth=8))
        assert resources.slice_utilisation < 0.08
        assert resources.dsp_utilisation < 0.08

    def test_depth4_v1_frequency_reproduces_gradient_throughput(self):
        # 11 ops * 322 MHz / II 6 = 0.59 GOPS (the paper's Section IV figure).
        fmax = overlay_fmax_mhz(V1, 4)
        assert fmax == pytest.approx(322, abs=2)
        assert 11 * fmax * 1e6 / 6 / 1e9 == pytest.approx(0.59, abs=0.01)


class TestScalingBehaviour:
    def test_slices_grow_linearly_with_depth(self):
        sweep = scalability_sweep(V1, range(2, 17, 2))
        deltas = [
            sweep[i + 1].logic_slices - sweep[i].logic_slices for i in range(len(sweep) - 1)
        ]
        assert max(deltas) - min(deltas) <= 2  # constant per-FU increment

    def test_dsps_grow_with_depth_and_lanes(self):
        v1 = scalability_sweep(V1, [4, 8, 16])
        v2 = scalability_sweep(V2, [4, 8, 16])
        assert [r.dsp_blocks for r in v1] == [4, 8, 16]
        assert [r.dsp_blocks for r in v2] == [8, 16, 32]

    def test_v2_always_larger_than_v1(self):
        for depth in (2, 4, 8, 16):
            assert overlay_slices(V2, depth) > overlay_slices(V1, depth)

    def test_fmax_decreases_monotonically_with_depth(self):
        frequencies = [overlay_fmax_mhz(V1, d) for d in range(2, 17)]
        assert all(a >= b for a, b in zip(frequencies, frequencies[1:]))

    def test_fmax_stays_in_the_fig5_range(self):
        for depth in range(2, 17):
            for variant in (V1, V2):
                assert 250 <= overlay_fmax_mhz(variant, depth) <= 340

    def test_single_fu_frequency_equals_table1(self):
        assert overlay_fmax_mhz(V1, 1) == pytest.approx(V1.fmax_mhz)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            overlay_slices(V1, 0)
        with pytest.raises(ConfigurationError):
            overlay_fmax_mhz(V1, 0)


class TestSpatialComparison:
    def test_spatial_overlay_needs_one_fu_per_operation(self, gradient):
        from repro.baseline.spatial import evaluate_spatial

        spatial = evaluate_spatial(gradient)
        tm = estimate_resources(LinearOverlay.for_kernel(V1, gradient))
        assert spatial.dsp_blocks == 11
        assert tm.dsp_blocks == 4
        assert spatial.logic_slices > tm.logic_slices

    def test_device_totals_are_sane(self):
        assert ZYNQ_XC7Z020_DSP_BLOCKS == 220
        assert ZYNQ_XC7Z020_LOGIC_SLICES == 13300
