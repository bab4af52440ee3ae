"""Tests for the synthetic kernel generators."""

import pytest

from repro.dfg.analysis import asap_stage_assignment, dfg_depth, stage_traffic
from repro.dfg.validate import collect_validation_errors
from repro.errors import KernelError
from repro.kernels.generators import (
    dfg_from_level_profile,
    dfg_from_traffic_profile,
    random_dfg,
)
from repro.kernels.reference import evaluate_dfg


class TestLevelProfileGenerator:
    def test_exact_op_count_and_depth(self):
        profile = [5, 4, 3, 2, 1]
        dfg = dfg_from_level_profile(profile, num_inputs=3)
        assert dfg.num_operations == sum(profile)
        assert dfg_depth(dfg) == len(profile)

    def test_graph_is_valid_and_live(self):
        dfg = dfg_from_level_profile([4, 4, 2, 1], num_inputs=2)
        assert collect_validation_errors(dfg) == []

    def test_single_input_supported(self):
        dfg = dfg_from_level_profile([3, 2, 1], num_inputs=1)
        assert dfg.num_inputs == 1
        assert collect_validation_errors(dfg) == []

    def test_last_level_must_be_one(self):
        with pytest.raises(KernelError):
            dfg_from_level_profile([3, 2], num_inputs=2)

    def test_too_narrow_level_rejected(self):
        with pytest.raises(KernelError):
            dfg_from_level_profile([8, 1, 1], num_inputs=2)

    def test_empty_profile_rejected(self):
        with pytest.raises(KernelError):
            dfg_from_level_profile([], num_inputs=2)

    def test_is_executable(self):
        dfg = dfg_from_level_profile([4, 3, 2, 1], num_inputs=3)
        assert len(evaluate_dfg(dfg, [1, 2, 3])) == 1


class TestTrafficProfileGenerator:
    def test_characteristics_are_exact(self):
        computes = [6, 6, 4, 3, 2, 2, 2, 1, 1]
        skips = [2, 3, 1, 0, 0, 0, 0, 0, 0]
        dfg = dfg_from_traffic_profile(computes, skips, num_inputs=3)
        assert dfg.num_operations == sum(computes)
        assert dfg_depth(dfg) == len(computes)
        assert collect_validation_errors(dfg) == []

    def test_skip_counts_become_pass_throughs(self):
        computes = [4, 3, 2, 1]
        skips = [2, 1, 0, 0]
        dfg = dfg_from_traffic_profile(computes, skips, num_inputs=3)
        traffic = stage_traffic(dfg, asap_stage_assignment(dfg))
        assert len(traffic[0].passes) == 2
        assert len(traffic[1].passes) == 1
        assert len(traffic[2].passes) == 0

    def test_zero_skips_equivalent_to_plain_levels(self):
        computes = [3, 2, 1]
        dfg = dfg_from_traffic_profile(computes, [0, 0, 0], num_inputs=2)
        traffic = stage_traffic(dfg, asap_stage_assignment(dfg))
        assert all(t.passes == [] for t in traffic)

    def test_mismatched_profile_lengths_rejected(self):
        with pytest.raises(KernelError):
            dfg_from_traffic_profile([2, 1], [0], num_inputs=2)

    def test_too_many_input_skips_rejected(self):
        with pytest.raises(KernelError):
            dfg_from_traffic_profile([2, 2, 1], [5, 0, 0], num_inputs=2)

    def test_skipping_all_of_a_level_rejected(self):
        with pytest.raises(KernelError):
            dfg_from_traffic_profile([2, 2, 1], [0, 2, 0], num_inputs=2)

    def test_skip_from_deepest_level_rejected(self):
        with pytest.raises(KernelError):
            dfg_from_traffic_profile([2, 2, 1], [0, 0, 1], num_inputs=2)

    def test_overloaded_level_rejected(self):
        # level 2 must consume 6 non-skip values + 3 skips with only 2 ops.
        with pytest.raises(KernelError):
            dfg_from_traffic_profile([8, 2, 1], [3, 0, 0], num_inputs=3)

    def test_generated_graph_is_executable(self):
        dfg = dfg_from_traffic_profile([4, 3, 2, 1], [1, 1, 0, 0], num_inputs=2)
        assert len(evaluate_dfg(dfg, [5, -3])) == 1


class TestRandomDFG:
    def test_same_seed_same_graph(self):
        a = random_dfg(3, 20, seed=7)
        b = random_dfg(3, 20, seed=7)
        assert len(a) == len(b)
        assert [n.opcode for n in a.nodes()] == [n.opcode for n in b.nodes()]

    def test_different_seeds_differ(self):
        a = random_dfg(3, 20, seed=1)
        b = random_dfg(3, 20, seed=2)
        assert [n.opcode for n in a.nodes()] != [n.opcode for n in b.nodes()]

    def test_graph_is_live_and_executable(self):
        for seed in range(5):
            dfg = random_dfg(4, 15, seed=seed)
            assert collect_validation_errors(dfg, require_live=False) == []
            assert len(evaluate_dfg(dfg, [1, 2, 3, 4])) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(KernelError):
            random_dfg(0, 5)
        with pytest.raises(KernelError):
            random_dfg(2, 0)
