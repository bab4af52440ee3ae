"""Tests for the context-switch / partial-reconfiguration time model."""

import pytest

from repro.dfg.analysis import dfg_depth
from repro.errors import ConfigurationError
from repro.overlay.architecture import LinearOverlay
from repro.overlay.context_switch import (
    context_switch_reduction,
    context_switch_time_s,
    instruction_load_time_s,
    pcap_configuration_time_s,
    reconfigurable_region,
)
from repro.overlay.fu import V1, V2, V3


class TestReconfigurableRegion:
    def test_depth8_v1_region_matches_paper(self):
        assert reconfigurable_region(V1, 8) == (7, 1)

    def test_depth8_v2_region_matches_paper(self):
        assert reconfigurable_region(V2, 8) == (9, 2)

    def test_region_grows_with_depth(self):
        small = reconfigurable_region(V1, 4)
        large = reconfigurable_region(V1, 16)
        assert large[0] > small[0]
        assert large[1] >= small[1]


class TestPCAPTimes:
    def test_depth8_v1_pcap_time_matches_paper(self):
        assert pcap_configuration_time_s(V1, 8) == pytest.approx(0.73e-3, rel=0.03)

    def test_depth8_v2_pcap_time_matches_paper(self):
        assert pcap_configuration_time_s(V2, 8) == pytest.approx(1.02e-3, rel=0.03)

    def test_instruction_load_time_for_largest_benchmark(self):
        # ~44 instruction words (poly6) load in roughly the paper's 0.29 us.
        assert instruction_load_time_s(44) == pytest.approx(0.29e-6, rel=0.05)

    def test_negative_word_count_rejected(self):
        with pytest.raises(ConfigurationError):
            instruction_load_time_s(-1)


class TestContextSwitch:
    def test_critical_path_overlay_pays_pcap_on_kernel_change(self, gradient):
        overlay = LinearOverlay.for_kernel(V1, gradient)
        estimate = context_switch_time_s(overlay, instruction_words=40, kernel_depth=9)
        assert estimate.requires_partial_reconfiguration
        assert estimate.pcap_time_s > 0
        assert estimate.total_time_s > estimate.instruction_load_time_s

    def test_same_depth_kernel_change_avoids_pcap(self, gradient):
        overlay = LinearOverlay.for_kernel(V1, gradient)
        estimate = context_switch_time_s(overlay, instruction_words=40, kernel_depth=4)
        assert not estimate.requires_partial_reconfiguration
        assert estimate.pcap_time_s == 0

    def test_fixed_depth_overlay_never_needs_pcap(self):
        overlay = LinearOverlay.fixed(V3, 8)
        estimate = context_switch_time_s(overlay, instruction_words=60)
        assert not estimate.requires_partial_reconfiguration
        assert estimate.total_time_s == estimate.instruction_load_time_s

    def test_requires_reconfiguration_follows_kernel_depth(self, gradient, poly7):
        def needs_pr(overlay, kernel):
            estimate = context_switch_time_s(
                overlay, instruction_words=40, kernel_depth=dfg_depth(kernel)
            )
            return estimate.requires_partial_reconfiguration

        v1_overlay = LinearOverlay.for_kernel(V1, gradient)
        assert not needs_pr(v1_overlay, gradient)
        assert needs_pr(v1_overlay, poly7)
        assert not needs_pr(LinearOverlay.fixed(V3, 8), poly7)

    def test_paper_2900x_reduction_is_reproduced(self):
        v1_overlay = LinearOverlay(variant=V1, depth=8)
        v3_overlay = LinearOverlay.fixed(V3, 8)
        reconfigured = context_switch_time_s(v1_overlay, instruction_words=44)
        fixed = context_switch_time_s(v3_overlay, instruction_words=44)
        ratio = context_switch_reduction(reconfigured, fixed)
        # The paper reports a ~2900x reduction; the model lands in that regime.
        assert 1500 <= ratio <= 4500

    def test_reduction_requires_positive_reference(self):
        overlay = LinearOverlay.fixed(V3, 8)
        fixed = context_switch_time_s(overlay, instruction_words=0)
        with pytest.raises(ConfigurationError):
            context_switch_reduction(fixed, fixed)
