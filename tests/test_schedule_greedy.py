"""Tests for the fixed-depth greedy cluster scheduler (V3-V5 overlays)."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.dfg.analysis import dfg_depth
from repro.errors import InfeasibleScheduleError
from repro.kernels import PAPER_TABLE3_II, TABLE3_BENCHMARKS, get_kernel
from repro.kernels.generators import random_dfg
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V1, V3, V4, V5
from repro.schedule.greedy import (
    _assignment_cost,
    _legal_moves,
    _stage_iis,
    cluster_membership,
    initial_cluster_assignment,
    refine_assignment,
    schedule_fixed_depth,
)
from repro.schedule.ii import analytic_ii, per_stage_ii, stage_ii
from repro.schedule.linear import schedule_linear
from repro.schedule.ordering import verify_ordering
from repro.schedule.types import SlotKind


class TestInitialClustering:
    def test_every_operation_assigned(self, poly7):
        assignment = initial_cluster_assignment(poly7, 8)
        assert set(assignment) == {n.node_id for n in poly7.operations()}
        assert set(assignment.values()) == set(range(8))

    def test_precedence_respected(self, poly7):
        assignment = initial_cluster_assignment(poly7, 8)
        for node in poly7.operations():
            for operand in node.operands:
                if operand in assignment:
                    assert assignment[operand] <= assignment[node.node_id]

    def test_rejects_more_clusters_than_levels(self, gradient):
        with pytest.raises(InfeasibleScheduleError):
            initial_cluster_assignment(gradient, 8)

    def test_cluster_membership_listing(self, poly7):
        assignment = initial_cluster_assignment(poly7, 8)
        clusters = cluster_membership(assignment, 8)
        assert sum(len(c) for c in clusters) == poly7.num_operations


class TestFixedDepthScheduling:
    def test_shallow_kernels_fall_back_to_asap(self, gradient):
        schedule = schedule_fixed_depth(gradient, LinearOverlay.fixed(V3, 8))
        assert schedule.scheduler == "asap"
        assert schedule.total_nops == 0

    def test_deep_kernels_use_greedy_clustering(self, poly7):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(V3, 8))
        assert schedule.scheduler == "greedy"
        assert len(schedule.stages) == 8

    def test_deep_kernel_on_non_writeback_overlay_rejected(self, poly7):
        with pytest.raises(InfeasibleScheduleError):
            schedule_fixed_depth(poly7, LinearOverlay(variant=V1, depth=8))

    def test_every_operation_scheduled_once(self, poly7):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(V3, 8))
        computed = [
            slot.value_id
            for stage in schedule.stages
            for slot in stage.slots
            if slot.kind is SlotKind.COMPUTE
        ]
        assert sorted(computed) == sorted(n.node_id for n in poly7.operations())

    def test_assignment_respects_precedence_with_equality(self, poly7):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(V3, 8))
        assignment = schedule.assignment
        for node in poly7.operations():
            for operand in node.operands:
                if operand in assignment:
                    assert assignment[operand] <= assignment[node.node_id]

    @pytest.mark.parametrize("variant", [V3, V4, V5])
    def test_iwp_spacing_is_respected_in_every_stage(self, poly7, variant):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(variant, 8))
        for stage in schedule.stages:
            assert verify_ordering(poly7.copy(), stage.slots, variant.iwp) == []

    def test_same_stage_consumers_use_write_back(self, poly7):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(V3, 8))
        assignment = schedule.assignment
        writers = {
            slot.value_id
            for stage in schedule.stages
            for slot in stage.slots
            if slot.write_back
        }
        for node in poly7.operations():
            same_stage_consumer = any(
                assignment.get(c) == assignment[node.node_id]
                for c in poly7.consumer_ids(node.node_id)
                if c in assignment
            )
            if same_stage_consumer:
                assert node.node_id in writers

    def test_lower_iwp_never_increases_ii(self, poly7):
        ii = {
            variant.name: analytic_ii(
                schedule_fixed_depth(poly7, LinearOverlay.fixed(variant, 8))
            )
            for variant in (V3, V4, V5)
        }
        assert ii["v5"] <= ii["v4"] <= ii["v3"]

    def test_load_order_matches_upstream_emissions(self, poly7):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(V4, 8))
        for previous, current in zip(schedule.stages, schedule.stages[1:]):
            assert current.load_order == previous.emission_order

    def test_refinement_does_not_exceed_asap_ii_for_shallow_fit(self):
        # A depth-8 kernel on a depth-8 overlay must match plain ASAP exactly.
        qspline = get_kernel("qspline")
        fixed = schedule_fixed_depth(qspline, LinearOverlay.fixed(V3, 8))
        linear = schedule_linear(qspline, LinearOverlay.for_kernel(V1, qspline))
        assert analytic_ii(fixed) == analytic_ii(linear)

    def test_fixed_depth_reduces_per_stage_imbalance(self, poly7):
        schedule = schedule_fixed_depth(poly7, LinearOverlay.fixed(V4, 8))
        contributions = per_stage_ii(schedule)
        assert max(contributions) <= 2 * (sum(contributions) / len(contributions))


class TestAgainstPaperTable3:
    @pytest.mark.parametrize("name", list(TABLE3_BENCHMARKS))
    @pytest.mark.parametrize("variant", ["v3", "v4"])
    def test_fixed_depth_ii_close_to_paper(self, name, variant):
        """The shallow kernels match exactly; the reconstructed deep kernels
        must land within 25% of the published II (scheduling heuristics and
        reconstructed DFGs differ in detail)."""
        dfg = get_kernel(name)
        schedule = schedule_fixed_depth(dfg, LinearOverlay.fixed(variant, 8))
        measured = analytic_ii(schedule)
        published = PAPER_TABLE3_II[name][variant]
        if dfg_depth(dfg) <= 8:
            assert measured == pytest.approx(published)
        else:
            assert measured == pytest.approx(published, rel=0.25)


#: Random kernels deeper than the overlay, so clustering and refinement run.
clustering_cases = st.fixed_dictionaries(
    {
        "dfg": st.builds(
            random_dfg,
            num_inputs=st.integers(min_value=1, max_value=5),
            num_operations=st.integers(min_value=10, max_value=36),
            seed=st.integers(min_value=0, max_value=10_000),
        ),
        "variant": st.sampled_from([V3, V4, V5]),
        "depth": st.integers(min_value=2, max_value=8),
    }
)


def _reference_refinement(dfg, assignment, overlay, max_moves=200):
    """The refinement loop on full stage rebuilds (``_assignment_cost``)."""
    assignment = dict(assignment)
    best_cost, stages = _assignment_cost(dfg, assignment, overlay)
    for _ in range(max_moves):
        contributions = [stage_ii(stage, overlay.variant) for stage in stages]
        bottleneck = max(range(len(contributions)), key=lambda i: contributions[i])
        best_move, best_move_cost, best_move_stages = None, best_cost, stages
        for node_id in sorted(n for n, c in assignment.items() if c == bottleneck):
            for target in _legal_moves(dfg, assignment, node_id, overlay.depth):
                trial = dict(assignment)
                trial[node_id] = target
                cost, trial_stages = _assignment_cost(dfg, trial, overlay)
                if cost < best_move_cost:
                    best_move, best_move_cost, best_move_stages = (node_id, target), cost, trial_stages
        if best_move is None:
            break
        assignment[best_move[0]] = best_move[1]
        best_cost, stages = best_move_cost, best_move_stages
    return assignment


class TestTrialScoring:
    """Refinement scores trials from stage traffic and memoised slot counts;
    the full stage rebuild is the oracle."""

    @given(case=clustering_cases)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_legal_move_scores_like_a_full_rebuild(self, case):
        dfg, variant, depth = case["dfg"], case["variant"], case["depth"]
        assume(dfg_depth(dfg) > depth)
        overlay = LinearOverlay.fixed(variant, depth)
        initial = initial_cluster_assignment(dfg, depth)
        slot_counts = {}  # shared across trials, as within one refinement
        for base in (initial, refine_assignment(dfg, initial, overlay)):
            for node_id in sorted(base):
                for target in _legal_moves(dfg, base, node_id, depth):
                    trial = dict(base)
                    trial[node_id] = target
                    cost, stages = _assignment_cost(dfg, trial, overlay)
                    iis = _stage_iis(dfg, trial, overlay, slot_counts)
                    assert iis == [stage_ii(stage, variant) for stage in stages]
                    assert max(iis) == cost

    @given(case=clustering_cases)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_refinement_picks_the_moves_of_the_rebuilding_loop(self, case):
        dfg, variant, depth = case["dfg"], case["variant"], case["depth"]
        assume(dfg_depth(dfg) > depth)
        overlay = LinearOverlay.fixed(variant, depth)
        initial = initial_cluster_assignment(dfg, depth)
        assert refine_assignment(dfg, initial, overlay) == _reference_refinement(
            dfg, initial, overlay
        )
