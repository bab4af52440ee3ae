"""Integration tests that reproduce the paper's headline results end-to-end.

These tests run the full tool flow (kernel -> schedule -> program -> cycle
accurate simulation -> metrics) and check the quantities the paper reports in
its abstract, Section IV walk-through and Section V evaluation.
"""

import pytest

from repro.api import default_toolchain
from repro.kernels import PAPER_TABLE3_II, TABLE3_BENCHMARKS, get_kernel
from repro.metrics.comparison import average_reduction
from repro.metrics.performance import evaluate_kernel_all_overlays
from repro.overlay.architecture import LinearOverlay
from repro.overlay.context_switch import context_switch_reduction, context_switch_time_s
from repro.program.codegen import generate_program
from repro.schedule import analytic_ii, schedule_kernel
from repro.sim.overlay import simulate_schedule
from repro.specs import OverlaySpec, SimSpec


@pytest.fixture(scope="module")
def table3_measured_ii():
    """II of every Table III kernel on every overlay of the comparison."""
    measured = {}
    for name in TABLE3_BENCHMARKS:
        dfg = get_kernel(name)
        measured[name] = {
            label: result.ii
            for label, result in evaluate_kernel_all_overlays(dfg).items()
        }
    return measured


class TestTable3:
    def test_asap_overlays_match_every_published_ii(self, table3_measured_ii):
        for name, by_overlay in table3_measured_ii.items():
            for label in ("baseline", "v1", "v2"):
                assert by_overlay[label] == pytest.approx(
                    PAPER_TABLE3_II[name][label]
                ), f"{name}/{label}"

    def test_average_v1_reduction_matches_paper_42_percent(self, table3_measured_ii):
        reference = {k: v["baseline"] for k, v in table3_measured_ii.items()}
        v1 = {k: v["v1"] for k, v in table3_measured_ii.items()}
        assert average_reduction(reference, v1) == pytest.approx(0.42, abs=0.02)

    def test_average_v2_reduction_matches_paper_71_percent(self, table3_measured_ii):
        reference = {k: v["baseline"] for k, v in table3_measured_ii.items()}
        v2 = {k: v["v2"] for k, v in table3_measured_ii.items()}
        assert average_reduction(reference, v2) == pytest.approx(0.71, abs=0.02)

    def test_fixed_depth_reduction_for_deep_benchmarks(self, table3_measured_ii):
        """Paper: V3 (V4) average 34% (40%) II reduction on the depth > 8
        kernels.  The reconstructed deep kernels keep the direction and
        magnitude (>= 25% reduction, V4 at least as good as V3)."""
        deep = ["sgfilter", "poly5", "poly6", "poly7", "poly8"]
        reference = {k: table3_measured_ii[k]["baseline"] for k in deep}
        v3 = {k: table3_measured_ii[k]["v3"] for k in deep}
        v4 = {k: table3_measured_ii[k]["v4"] for k in deep}
        v3_reduction = average_reduction(reference, v3)
        v4_reduction = average_reduction(reference, v4)
        assert v3_reduction >= 0.25
        assert v4_reduction >= v3_reduction

    def test_shallow_kernels_keep_asap_ii_on_fixed_overlays(self, table3_measured_ii):
        for name in ("chebyshev", "mibench", "qspline"):
            assert table3_measured_ii[name]["v3"] == table3_measured_ii[name]["v1"]
            assert table3_measured_ii[name]["v4"] == table3_measured_ii[name]["v1"]


class TestSectionIVCaseStudy:
    def test_gradient_ii_11_to_6_to_3(self, gradient):
        ii = {
            label: analytic_ii(
                schedule_kernel(gradient, LinearOverlay.for_kernel(label, gradient))
            )
            for label in ("baseline", "v1", "v2")
        }
        assert ii == {"baseline": 11, "v1": 6, "v2": 3}

    def test_gradient_throughput_and_latency(self, gradient):
        v1 = default_toolchain().evaluate(gradient, OverlaySpec("v1"))
        v2 = default_toolchain().evaluate(gradient, OverlaySpec("v2"))
        assert v1.throughput_gops == pytest.approx(0.59, abs=0.01)
        assert v1.latency_ns == pytest.approx(86.8, rel=0.02)
        assert v2.throughput_gops == pytest.approx(1.11, rel=0.08)
        # V2 does not improve single-block latency (dual datapath, same depth).
        assert v2.latency_ns >= v1.latency_ns * 0.9

    def test_qspline_on_depth4_fixed_overlays(self, qspline):
        """Section IV: on a depth-4 overlay, qspline needs II 15 on V3 and 14
        on V4 (vs 11 on the depth-8 V1 overlay)."""
        v1_ii = analytic_ii(
            schedule_kernel(qspline, LinearOverlay.for_kernel("v1", qspline))
        )
        v3_ii = analytic_ii(schedule_kernel(qspline, LinearOverlay.fixed("v3", 4)))
        v4_ii = analytic_ii(schedule_kernel(qspline, LinearOverlay.fixed("v4", 4)))
        assert v1_ii == 11
        # Halving the FU count roughly adds ~30% II, as in the paper (15/14 vs
        # 11); the exact values depend on the clustering heuristic.
        assert v3_ii > v1_ii and v4_ii > v1_ii
        assert v3_ii == pytest.approx(15, abs=2)
        assert v4_ii == pytest.approx(14, abs=2)

    def test_depth4_overlay_reduces_latency_versus_depth8(self, qspline):
        v1 = default_toolchain().evaluate(qspline, OverlaySpec("v1"))
        v3 = default_toolchain().evaluate(qspline, OverlaySpec("v3", depth=4))
        assert v3.latency_ns < v1.latency_ns


class TestAbstractHeadline:
    def test_average_70_percent_ii_reduction(self, table3_measured_ii):
        """Abstract: "an average 70% reduction in II" — achieved by the best
        non-baseline overlay per kernel (V2)."""
        reference = {k: v["baseline"] for k, v in table3_measured_ii.items()}
        best = {k: min(v["v1"], v["v2"], v["v3"], v["v4"]) for k, v in table3_measured_ii.items()}
        assert average_reduction(reference, best) >= 0.70


class TestContextSwitch:
    def test_2900x_context_switch_reduction(self):
        """Section V: a hardware context switch on the fixed-depth V3 overlay
        is ~2900x faster than reconfiguring the V1 overlay region."""
        from repro.overlay.fu import V1

        poly6 = get_kernel("poly6")
        v1_overlay = LinearOverlay(variant=V1, depth=8)
        v3_overlay = LinearOverlay.fixed("v3", 8)
        v3_program = generate_program(schedule_kernel(poly6, v3_overlay))
        v1_estimate = context_switch_time_s(v1_overlay, instruction_words=44)
        v3_estimate = context_switch_time_s(
            v3_overlay, instruction_words=v3_program.total_instruction_words
        )
        ratio = context_switch_reduction(v1_estimate, v3_estimate)
        assert v1_estimate.total_time_s == pytest.approx(0.73e-3, rel=0.05)
        assert v3_estimate.total_time_s < 1e-6
        assert 1000 <= ratio <= 5000


class TestEndToEndSimulation:
    @pytest.mark.parametrize("name", ["gradient", "qspline", "poly7"])
    def test_full_flow_verifies_on_every_evaluated_overlay(self, name):
        dfg = get_kernel(name)
        for label in ("baseline", "v1", "v2", "v3", "v4"):
            result = default_toolchain().evaluate(
                dfg, OverlaySpec(label), sim=SimSpec(num_blocks=8)
            )
            assert result.reference_match is True, f"{name}/{label}"
            assert result.measured_ii == pytest.approx(result.ii), f"{name}/{label}"
