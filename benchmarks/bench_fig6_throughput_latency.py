"""Reproduces paper Fig. 6: throughput and latency of the benchmark set.

For every kernel of Table III and every overlay of the comparison ([14], V1,
V2, V3, V4 — the last two at the fixed depth of 8) the harness computes the
throughput in GOPS and the latency in nanoseconds using the analytic II, the
calibrated Fmax model and the latency model, exactly the quantities the
paper's bar charts plot.  The paper's qualitative findings are asserted:

* every improved overlay beats the [14] baseline in throughput;
* V2 roughly doubles V1's throughput (at twice the data bandwidth);
* V3 stays within ~10-15% of V1's throughput on average;
* the fixed-depth overlays cut latency for the deep kernels.
"""

import pytest

from repro.kernels import PAPER_CHARACTERISTICS, TABLE3_BENCHMARKS, get_kernel
from repro.metrics.comparison import geometric_mean
from repro.metrics.performance import evaluate_kernel_all_overlays
from repro.metrics.tables import render_fig6_series


def _evaluate_all():
    return {name: evaluate_kernel_all_overlays(get_kernel(name)) for name in TABLE3_BENCHMARKS}


def test_fig6_throughput_and_latency(benchmark, save_result):
    results = benchmark(_evaluate_all)
    save_result("fig6_throughput_latency", render_fig6_series(results))

    deep_kernels = [
        name for name in TABLE3_BENCHMARKS if PAPER_CHARACTERISTICS[name].depth > 8
    ]

    # Throughput: every overlay improves on [14] for every kernel.
    for name, by_overlay in results.items():
        for label in ("v1", "v2", "v3", "v4"):
            assert (
                by_overlay[label].throughput_gops > by_overlay["baseline"].throughput_gops
            ), f"{name}/{label}"

    # V2 roughly doubles V1 (same schedule, two lanes, similar Fmax).
    ratios = [
        results[name]["v2"].throughput_gops / results[name]["v1"].throughput_gops
        for name in TABLE3_BENCHMARKS
    ]
    assert geometric_mean(ratios) == pytest.approx(2.0, rel=0.05)

    # V3 throughput close to V1 (paper: about 10% lower on average).
    v3_vs_v1 = [
        results[name]["v3"].throughput_gops / results[name]["v1"].throughput_gops
        for name in TABLE3_BENCHMARKS
    ]
    assert 0.80 <= geometric_mean(v3_vs_v1) <= 1.05

    # V4 pays its lower clock frequency with reduced throughput versus V3.
    v4_vs_v3 = [
        results[name]["v4"].throughput_gops / results[name]["v3"].throughput_gops
        for name in TABLE3_BENCHMARKS
    ]
    assert geometric_mean(v4_vs_v3) < 1.0

    # Latency: the fixed-depth overlays win on the deep kernels (Fig. 6 bottom).
    for name in deep_kernels:
        assert results[name]["v3"].latency_ns < results[name]["v1"].latency_ns
        assert results[name]["v3"].latency_ns < results[name]["baseline"].latency_ns
