"""Unit tests for repro.dfg.analysis."""

import pytest

from repro.dfg.analysis import (
    alap_levels,
    asap_levels,
    asap_stage_assignment,
    dfg_depth,
    level_sets,
    stage_traffic,
    value_lifetimes,
)
from repro.errors import DFGValidationError
from repro.kernels import PAPER_CHARACTERISTICS


class TestLevels:
    def test_inputs_are_level_zero(self, diamond_dfg):
        levels = asap_levels(diamond_dfg)
        for node in diamond_dfg.inputs():
            assert levels[node.node_id] == 0

    def test_asap_level_is_one_past_latest_operand(self, diamond_dfg):
        levels = asap_levels(diamond_dfg)
        for node in diamond_dfg.operations():
            assert levels[node.node_id] == 1 + max(levels[o] for o in node.operands)

    def test_gradient_depth_matches_paper(self, gradient):
        assert dfg_depth(gradient) == 4

    def test_level_sets_cover_all_operations(self, gradient):
        groups = level_sets(gradient)
        assert sum(len(g) for g in groups) == gradient.num_operations
        assert len(groups) == dfg_depth(gradient)

    def test_gradient_level_occupancy(self, gradient):
        groups = level_sets(gradient)
        assert [len(g) for g in groups] == [4, 4, 2, 1]

    def test_alap_never_before_asap(self, qspline):
        asap = asap_levels(qspline)
        alap = alap_levels(qspline)
        for node in qspline.operations():
            assert alap[node.node_id] >= asap[node.node_id]

    def test_alap_with_extended_depth_adds_slack(self, gradient):
        relaxed = alap_levels(gradient, depth=8)
        tight = alap_levels(gradient, depth=4)
        ops = [n.node_id for n in gradient.operations()]
        assert all(relaxed[o] >= tight[o] for o in ops)


class TestCharacteristics:
    @pytest.mark.parametrize("name", list(PAPER_CHARACTERISTICS))
    def test_characteristics_match_paper(self, benchmarks, name):
        published = PAPER_CHARACTERISTICS[name]
        dfg = benchmarks[name]
        assert dfg.num_inputs == published.num_inputs
        assert dfg.num_outputs == published.num_outputs
        assert dfg.num_operations == published.num_operations
        assert dfg_depth(dfg) == published.depth


class TestStageTraffic:
    def test_gradient_stage0_matches_paper_counts(self, gradient):
        assignment = asap_stage_assignment(gradient)
        traffic = stage_traffic(gradient, assignment)
        stage0 = traffic[0]
        assert stage0.num_loads == 5      # five stencil samples
        assert len(stage0.computes) == 4   # four subtractions
        assert stage0.passes == []

    def test_loads_of_stage_k_equal_emissions_of_previous(self, qspline):
        assignment = asap_stage_assignment(qspline)
        traffic = stage_traffic(qspline, assignment)
        for previous, current in zip(traffic, traffic[1:]):
            assert set(previous.emits) == set(current.loads)

    def test_pass_through_values_are_also_loaded(self, qspline):
        assignment = asap_stage_assignment(qspline)
        for entry in stage_traffic(qspline, assignment):
            assert set(entry.passes).issubset(set(entry.loads))

    def test_missing_assignment_rejected(self, gradient):
        with pytest.raises(DFGValidationError):
            stage_traffic(gradient, {})

    def test_out_of_range_stage_rejected(self, gradient):
        assignment = asap_stage_assignment(gradient)
        bad = dict(assignment)
        bad[next(iter(bad))] = 99
        with pytest.raises(DFGValidationError):
            stage_traffic(gradient, bad, num_stages=4)

    def test_extra_trailing_stages_only_pass(self, gradient):
        assignment = asap_stage_assignment(gradient)
        traffic = stage_traffic(gradient, assignment, num_stages=6)
        for entry in traffic[4:]:
            assert entry.computes == []
            assert entry.passes  # the output value transits

    def test_value_lifetimes_cover_inputs_and_ops(self, gradient):
        assignment = asap_stage_assignment(gradient)
        lifetimes = value_lifetimes(gradient, assignment)
        for node in gradient.inputs():
            produced, needed = lifetimes[node.node_id]
            assert produced == -1
            assert needed >= 0
        for node in gradient.operations():
            produced, needed = lifetimes[node.node_id]
            assert needed >= produced

    def test_output_feeding_value_needed_until_boundary(self, gradient):
        assignment = asap_stage_assignment(gradient)
        lifetimes = value_lifetimes(gradient, assignment, num_stages=4)
        final_value = gradient.outputs()[0].operands[0]
        assert lifetimes[final_value][1] == 4


# ---------------------------------------------------------------------------
# the memoised value uses against a plain re-derivation
# ---------------------------------------------------------------------------
def _plain_lifetimes(dfg, assignment, num_stages):
    """``value_lifetimes`` as a walk over ``consumer_ids`` per value."""
    lifetimes = {}
    for node in dfg.nodes():
        if node.is_const or node.is_output:
            continue
        produced = -1 if node.is_input else assignment[node.node_id]
        needed = produced
        for consumer_id in dfg.consumer_ids(node.node_id):
            consumer = dfg.node(consumer_id)
            if consumer.is_output:
                needed = max(needed, num_stages)
            elif consumer.is_operation:
                needed = max(needed, assignment[consumer_id])
        lifetimes[node.node_id] = (produced, needed)
    return lifetimes


def _plain_traffic(dfg, assignment, num_stages):
    """``stage_traffic`` rows ``(stage, loads, computes, passes, emits)``."""
    rows = [(k, [], [], [], []) for k in range(num_stages)]
    for node_id, stage in sorted(assignment.items()):
        rows[stage][2].append(node_id)
    lifetimes = _plain_lifetimes(dfg, assignment, num_stages)
    for value_id, (produced, needed) in sorted(lifetimes.items()):
        for stage in range(produced + 1, min(needed, num_stages - 1) + 1):
            rows[stage][1].append(value_id)
            if needed > stage:
                rows[stage][3].append(value_id)
        if produced >= 0 and needed > produced:
            rows[produced][4].append(value_id)
        for stage in range(produced + 1, min(needed, num_stages - 1) + 1):
            if needed > stage:
                rows[stage][4].append(value_id)
    return rows


def _assert_matches_plain(dfg, assignment, num_stages):
    traffic = stage_traffic(dfg, assignment, num_stages=num_stages)
    got = [(t.stage, t.loads, t.computes, t.passes, t.emits) for t in traffic]
    assert got == _plain_traffic(dfg, assignment, num_stages)
    expected = _plain_lifetimes(dfg, assignment, num_stages)
    assert value_lifetimes(dfg, assignment, num_stages=num_stages) == expected
    assert list(value_lifetimes(dfg, assignment, num_stages=num_stages)) == list(expected)


def _random_legal_assignment(dfg, rng, num_stages):
    """Each operation no earlier than its operands, drawn in topological order."""
    assignment = {}
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        if node.is_operation:
            earliest = max((assignment.get(o, 0) for o in node.operands), default=0)
            assignment[node_id] = rng.randint(earliest, num_stages - 1)
    return assignment


class TestValueUses:
    def test_library_artifacts_match_a_plain_rederivation(self):
        from repro.errors import InfeasibleScheduleError
        from repro.kernels import get_kernel, kernel_names
        from repro.schedule import schedule_with, scheduler_names
        from repro.specs import OverlaySpec

        checked = 0
        for name in kernel_names():
            dfg = get_kernel(name)
            for variant in ("baseline", "v1", "v2", "v3", "v4", "v5"):
                overlay = OverlaySpec(variant).build_overlay(dfg)
                for strategy in scheduler_names():
                    try:
                        schedule = schedule_with(strategy, dfg, overlay)
                    except InfeasibleScheduleError:
                        continue
                    _assert_matches_plain(dfg, schedule.assignment, overlay.depth)
                    checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("seed", range(12))
    def test_random_legal_assignments_match_a_plain_rederivation(self, seed):
        import random

        from repro.kernels.generators import random_dfg

        rng = random.Random(seed)
        dfg = random_dfg(rng.randint(1, 5), rng.randint(4, 40), seed=seed)
        for _ in range(5):
            num_stages = rng.randint(1, 9)
            assignment = _random_legal_assignment(dfg, rng, num_stages)
            _assert_matches_plain(dfg, assignment, num_stages)
            # The default depth is one past the deepest assigned stage.
            deepest = max(assignment.values()) + 1
            assert value_lifetimes(dfg, assignment) == _plain_lifetimes(dfg, assignment, deepest)

    def test_the_summary_is_computed_once_per_node_set(self, gradient):
        assignment = asap_stage_assignment(gradient)
        stage_traffic(gradient, assignment)
        uses = gradient.derived().value_uses
        assert uses is not None
        copy = gradient.copy(name="renamed")
        value_lifetimes(copy, assignment)
        assert copy.derived().value_uses is uses
