"""Tests for the performance metrics, comparisons and report tables."""

import pytest

from repro.api import default_toolchain
from repro.errors import ConfigurationError
from repro.kernels import TABLE3_BENCHMARKS, get_kernel
from repro.metrics.comparison import (
    average_reduction,
    geometric_mean,
    reduction,
)
from repro.metrics.performance import (
    EVALUATION_VARIANTS,
    analytic_latency_cycles,
    evaluate_kernel_all_overlays,
    latency_ns,
    throughput_gops,
)
from repro.metrics.tables import (
    format_table,
    render_fig5_series,
    render_fig6_series,
    render_table1,
    render_table3,
)
from repro.overlay.resources import scalability_sweep
from repro.specs import OverlaySpec, SimSpec


class TestBasicFormulas:
    def test_throughput_formula(self):
        # 11 ops at 322 MHz with II 6 -> 0.59 GOPS (the paper's gradient figure).
        assert throughput_gops(11, 6, 322) == pytest.approx(0.59, abs=0.005)

    def test_latency_conversion(self):
        assert latency_ns(28, 322) == pytest.approx(86.96, abs=0.1)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            throughput_gops(10, 0, 300)
        with pytest.raises(ConfigurationError):
            latency_ns(10, 0)


class TestEvaluateKernel:
    def test_gradient_v1_reproduces_section_iv(self, gradient):
        result = default_toolchain().evaluate(gradient, OverlaySpec("v1"))
        assert result.ii == pytest.approx(6)
        assert result.throughput_gops == pytest.approx(0.59, abs=0.01)
        assert result.latency_ns == pytest.approx(86.8, rel=0.02)

    def test_gradient_v2_reproduces_section_iv(self, gradient):
        result = default_toolchain().evaluate(gradient, OverlaySpec("v2"))
        assert result.ii == pytest.approx(3)
        assert result.throughput_gops == pytest.approx(1.11, rel=0.08)

    def test_simulated_evaluation_verifies_reference(self, gradient):
        result = default_toolchain().evaluate(
            gradient, OverlaySpec("v1"), sim=SimSpec(num_blocks=8)
        )
        assert result.simulated
        assert result.reference_match is True
        assert result.measured_ii == pytest.approx(result.ii)

    def test_overlay_spec_picks_the_papers_policy(self, gradient, poly7):
        assert OverlaySpec("v1").build_overlay(gradient).depth == 4
        assert OverlaySpec("v1").build_overlay(poly7).depth == 13
        assert OverlaySpec("v3").build_overlay(poly7).depth == 8
        assert OverlaySpec("v3").build_overlay(poly7).fixed_depth

    def test_all_overlays_evaluation_covers_the_paper_comparison(self, qspline):
        results = evaluate_kernel_all_overlays(qspline)
        assert set(results) == set(EVALUATION_VARIANTS)
        assert results["v2"].ii == pytest.approx(results["v1"].ii / 2)

    def test_all_overlays_equals_one_evaluation_per_variant(self, qspline):
        toolchain = default_toolchain()
        results = evaluate_kernel_all_overlays(qspline)
        for variant in EVALUATION_VARIANTS:
            assert results[variant] == toolchain.evaluate(qspline, OverlaySpec(variant))

    def test_as_row_is_flat_and_serialisable(self, gradient):
        row = default_toolchain().evaluate(gradient, OverlaySpec("v1")).as_row()
        assert row["kernel"] == "gradient"
        assert isinstance(row["gops"], float)

    def test_analytic_latency_grows_with_depth(self, gradient, poly7):
        from repro.schedule import schedule_kernel

        shallow = schedule_kernel(gradient, OverlaySpec("v1").build_overlay(gradient))
        deep = schedule_kernel(poly7, OverlaySpec("v1").build_overlay(poly7))
        assert analytic_latency_cycles(deep) > analytic_latency_cycles(shallow)


class TestComparisons:
    def test_reduction(self):
        assert reduction(10, 6) == pytest.approx(0.4)

    def test_geometric_mean(self):
        assert geometric_mean([1, 4, 16]) == pytest.approx(4.0)
        with pytest.raises(ConfigurationError):
            geometric_mean([])
        with pytest.raises(ConfigurationError):
            geometric_mean([1, 0])

    def test_average_reduction_over_kernels(self):
        reference = {"a": 10, "b": 20}
        new = {"a": 5, "b": 10}
        assert average_reduction(reference, new) == pytest.approx(0.5)

    def test_average_reduction_over_common_keys(self):
        reference = {"a": 10, "b": 20}
        new = {"a": 5, "c": 1}
        assert average_reduction(reference, new) == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            average_reduction({"a": 10}, {"b": 5})


class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, 2], [300, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title + header + separator + 2 rows

    def test_render_table1_contains_all_variants(self):
        text = render_table1()
        for label in ("[14]", "V1", "V2", "V3", "V4", "V5"):
            assert label in text

    def test_render_table3_includes_paper_values(self):
        measured = {
            name: {
                v: default_toolchain().evaluate(get_kernel(name), OverlaySpec(v)).ii
                for v in ("baseline", "v1")
            }
            for name in list(TABLE3_BENCHMARKS)[:2]
        }
        text = render_table3(measured)
        assert "chebyshev" in text
        assert "(" in text  # paper values in parentheses

    def test_render_fig5_series(self):
        text = render_fig5_series({"V1": scalability_sweep("v1", [2, 4])})
        assert "slices" in text and "fmax_MHz" in text

    def test_render_fig6_series(self, gradient):
        results = {"gradient": evaluate_kernel_all_overlays(gradient)}
        text = render_fig6_series(results)
        assert "GOPS" in text and "gradient" in text
