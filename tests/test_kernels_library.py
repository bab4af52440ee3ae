"""Tests for the benchmark kernel library (paper Table III characteristics)."""

from collections import Counter

import pytest

from repro.dfg.analysis import dfg_depth
from repro.dfg.opcodes import OpCode
from repro.dfg.validate import collect_validation_errors
from repro.errors import KernelError
from repro.kernels import (
    BENCHMARK_NAMES,
    PAPER_CHARACTERISTICS,
    TABLE3_BENCHMARKS,
    all_benchmarks,
    get_kernel,
    kernel_names,
)
from repro.kernels.reference import evaluate_dfg


class TestRegistry:
    def test_all_nine_paper_kernels_present(self):
        assert set(BENCHMARK_NAMES) == set(PAPER_CHARACTERISTICS)

    def test_table3_excludes_gradient(self):
        assert "gradient" not in TABLE3_BENCHMARKS
        assert len(TABLE3_BENCHMARKS) == 8

    def test_kernel_names_matches_registry(self):
        assert kernel_names() == list(BENCHMARK_NAMES)

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelError):
            get_kernel("does_not_exist")

    def test_get_kernel_returns_fresh_copies(self):
        first = get_kernel("gradient")
        second = get_kernel("gradient")
        assert first is not second
        assert len(first) == len(second)

    def test_all_benchmarks_mapping(self):
        mapping = all_benchmarks(include_gradient=False)
        assert set(mapping) == set(TABLE3_BENCHMARKS)


class TestCharacteristics:
    @pytest.mark.parametrize("name", list(PAPER_CHARACTERISTICS))
    def test_structural_characteristics_match_table3(self, name):
        dfg = get_kernel(name)
        paper = PAPER_CHARACTERISTICS[name]
        assert (dfg.num_inputs, dfg.num_outputs) == (
            paper.num_inputs,
            paper.num_outputs,
        )
        assert dfg.num_operations == paper.num_operations
        assert dfg_depth(dfg) == paper.depth

    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    def test_all_kernels_are_valid_dfgs(self, name):
        assert collect_validation_errors(get_kernel(name)) == []

    def test_gradient_operation_mix_matches_fig2(self):
        histogram = Counter(n.opcode for n in get_kernel("gradient").operations())
        assert histogram[OpCode.SUB] == 4
        assert histogram[OpCode.SQR] == 4
        assert histogram[OpCode.ADD] == 3

    def test_qspline_is_multiplication_dominated(self):
        histogram = Counter(n.opcode for n in get_kernel("qspline").operations())
        assert histogram[OpCode.MUL] == 21
        assert histogram[OpCode.ADD] == 4

    def test_poly_kernels_only_use_dsp_friendly_ops(self):
        for name in ("poly5", "poly6", "poly7", "poly8"):
            for node in get_kernel(name).operations():
                assert node.opcode in (OpCode.ADD, OpCode.SUB, OpCode.MUL)


class TestSemantics:
    def test_gradient_reference_value(self):
        dfg = get_kernel("gradient")
        # (1-3)^2 + (2-3)^2 + (3-4)^2 + (3-5)^2 = 4 + 1 + 1 + 4
        assert evaluate_dfg(dfg, [1, 2, 3, 4, 5]) == [10]

    def test_chebyshev_is_t5_polynomial(self):
        dfg = get_kernel("chebyshev")
        for x in (-3, -1, 0, 2, 5):
            assert evaluate_dfg(dfg, [x]) == [16 * x ** 5 - 20 * x ** 3 + 5 * x]

    def test_kernels_are_deterministic(self):
        for name in BENCHMARK_NAMES:
            a = evaluate_dfg(get_kernel(name), [7] * get_kernel(name).num_inputs)
            b = evaluate_dfg(get_kernel(name), [7] * get_kernel(name).num_inputs)
            assert a == b

    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    def test_kernels_produce_single_32bit_output(self, name):
        dfg = get_kernel(name)
        result = evaluate_dfg(dfg, list(range(1, dfg.num_inputs + 1)))
        assert len(result) == dfg.num_outputs
        assert all(-(2 ** 31) <= v <= 2 ** 31 - 1 for v in result)
