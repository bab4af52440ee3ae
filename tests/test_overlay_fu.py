"""Tests for the FU variant descriptors (paper Table I)."""

import pytest

from repro.errors import ConfigurationError
from repro.overlay.fu import (
    BASELINE,
    FU_VARIANTS,
    V1,
    V2,
    V3,
    V4,
    V5,
    get_variant,
)


#: The published Table I values: (DSPs, LUTs, FFs, Fmax, IWP).
TABLE1 = {
    "baseline": (1, 160, 293, 325, None),
    "v1": (1, 196, 237, 334, None),
    "v2": (2, 292, 333, 335, None),
    "v3": (1, 212, 228, 323, 5),
    "v4": (1, 207, 163, 254, 4),
    "v5": (1, 248, 126, 182, 3),
}


class TestTable1Values:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_resource_figures_match_paper(self, name):
        fu = FU_VARIANTS[name]
        dsps, luts, ffs, fmax, iwp = TABLE1[name]
        assert fu.dsp_blocks == dsps
        assert fu.luts == luts
        assert fu.flip_flops == ffs
        assert fu.fmax_mhz == pytest.approx(fmax)
        assert fu.iwp == iwp

    def test_v1_consumes_about_22_percent_more_luts_than_baseline(self):
        increase = (V1.luts - BASELINE.luts) / BASELINE.luts
        assert 0.20 <= increase <= 0.25  # the paper says "around 22%"

    def test_v2_less_than_twice_v1(self):
        assert V2.luts < 2 * V1.luts
        assert V2.flip_flops < 2 * V1.flip_flops

    def test_v1_virtex7_frequency_reported(self):
        assert V1.fmax_virtex7_mhz == pytest.approx(610.0)


class TestArchitecturalFlags:
    def test_baseline_has_no_overlap_or_writeback(self):
        assert not BASELINE.overlap_load_execute
        assert not BASELINE.write_back

    def test_v1_v2_overlap_without_writeback(self):
        for fu in (V1, V2):
            assert fu.overlap_load_execute
            assert not fu.write_back
            assert not fu.supports_fixed_depth

    def test_write_back_variants_support_fixed_depth(self):
        for fu in (V3, V4, V5):
            assert fu.write_back
            assert fu.supports_fixed_depth
            assert fu.dependence_distance == fu.iwp

    def test_iwp_strictly_decreases_from_v3_to_v5(self):
        assert V3.iwp > V4.iwp > V5.iwp

    def test_lower_iwp_costs_frequency(self):
        assert V3.fmax_mhz > V4.fmax_mhz > V5.fmax_mhz

    def test_v2_is_the_only_dual_lane_variant(self):
        assert V2.lanes == 2
        assert V2.stream_width_bits == 64
        for fu in (BASELINE, V1, V3, V4, V5):
            assert fu.lanes == 1
            assert fu.stream_width_bits == 32

    def test_block_gaps_match_the_ii_equations(self):
        for fu in FU_VARIANTS.values():
            assert fu.exec_block_gap == 2
            assert fu.load_block_gap == 1

    def test_rotating_rf_halves_the_frame_capacity(self):
        assert BASELINE.rf_frame_capacity == 32
        assert V1.rf_frame_capacity == 16


class TestLookup:
    def test_lookup_by_name_and_alias(self):
        assert get_variant("v1") is V1
        assert get_variant("V3") is V3
        assert get_variant("[14]") is BASELINE
        assert get_variant("olaf16") is BASELINE

    def test_lookup_passes_instances_through(self):
        assert get_variant(V4) is V4

    def test_unknown_variant_raises(self):
        with pytest.raises(ConfigurationError):
            get_variant("v9")

    def test_variant_names_in_table_order(self):
        assert list(FU_VARIANTS) == ["baseline", "v1", "v2", "v3", "v4", "v5"]
