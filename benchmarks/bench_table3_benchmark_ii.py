"""Reproduces paper Table III: DFG characteristics and II of the benchmark set.

For every kernel of the evaluation this harness runs the mapping flow on the
[14] baseline and the V1-V4 overlays (V3/V4 fixed at depth 8, as in the
paper) and reports the initiation intervals next to the published values.
The ASAP columns ([14]/V1/V2) must match the paper exactly; the fixed-depth
columns depend on the reconstructed deep kernels and the clustering heuristic
and are checked for direction and magnitude.
"""

import pytest

from repro.kernels import PAPER_CHARACTERISTICS, PAPER_TABLE3_II, TABLE3_BENCHMARKS, get_kernel
from repro.metrics.comparison import average_reduction
from repro.metrics.performance import evaluate_kernel_all_overlays
from repro.metrics.tables import render_table3


def _generate_table3():
    evaluated = {
        name: evaluate_kernel_all_overlays(get_kernel(name)) for name in TABLE3_BENCHMARKS
    }
    measured = {
        name: {label: result.ii for label, result in by_overlay.items()}
        for name, by_overlay in evaluated.items()
    }
    return measured, render_table3(measured)


def test_table3_benchmark_ii(benchmark, save_result):
    measured, text = benchmark(_generate_table3)

    summary_lines = [text, "", "Average II reduction vs [14]:"]
    reference = {k: v["baseline"] for k, v in measured.items()}
    for label, paper_value in (("v1", 0.42), ("v2", 0.71)):
        values = {k: v[label] for k, v in measured.items()}
        measured_reduction = average_reduction(reference, values)
        summary_lines.append(
            f"  {label}: {measured_reduction * 100:.1f}%  (paper: {paper_value * 100:.0f}%)"
        )
    save_result("table3_benchmark_ii", "\n".join(summary_lines))

    # Structural characteristics and ASAP IIs match the published table exactly.
    for name in TABLE3_BENCHMARKS:
        paper = PAPER_CHARACTERISTICS[name]
        dfg = get_kernel(name)
        assert (dfg.num_inputs, dfg.num_outputs, dfg.num_operations) == (
            paper.num_inputs,
            paper.num_outputs,
            paper.num_operations,
        )
        for label in ("baseline", "v1", "v2"):
            assert measured[name][label] == pytest.approx(PAPER_TABLE3_II[name][label])

    # Fixed-depth overlays: shallow kernels identical to V1, deep kernels within
    # 25% of the published values.
    for name in TABLE3_BENCHMARKS:
        for label in ("v3", "v4"):
            published = PAPER_TABLE3_II[name][label]
            if PAPER_CHARACTERISTICS[name].depth <= 8:
                assert measured[name][label] == pytest.approx(published)
            else:
                assert measured[name][label] == pytest.approx(published, rel=0.25)
