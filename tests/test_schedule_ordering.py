"""Tests for IWP-aware intra-cluster ordering and NOP insertion."""

import pytest

from repro.dfg.builder import DFGBuilder
from repro.schedule.ordering import (
    chain_lengths,
    intra_cluster_dependences,
    order_cluster,
    verify_ordering,
)
from repro.schedule.types import SlotKind


def _chain_cluster(length=3):
    """A kernel whose single cluster is a pure dependence chain."""
    builder = DFGBuilder("chain_cluster")
    x = builder.input("x")
    nodes = []
    current = x
    for _ in range(length):
        current = builder.add(current, x)
        nodes.append(current)
    builder.output(current)
    return builder.build(), nodes


def _independent_cluster(count=4):
    builder = DFGBuilder("independent")
    x, y = builder.input("x"), builder.input("y")
    nodes = [builder.add(x, y) for _ in range(count - 1)] + [builder.mul(x, y)]
    out = nodes[0]
    for node in nodes[1:]:
        out = builder.add(out, node)
    builder.output(out)
    return builder.build(), nodes


def _nops(slots):
    return sum(1 for slot in slots if slot.is_nop)


class TestDependenceAnalysis:
    def test_intra_cluster_dependences_only_count_members(self):
        dfg, nodes = _chain_cluster(3)
        deps = intra_cluster_dependences(dfg, nodes)
        assert deps[nodes[0]] == []
        assert deps[nodes[1]] == [nodes[0]]
        assert deps[nodes[2]] == [nodes[1]]

    def test_chain_lengths(self):
        dfg, nodes = _chain_cluster(3)
        lengths = chain_lengths(dfg, nodes)
        assert lengths[nodes[0]] == 3
        assert lengths[nodes[2]] == 1


class TestOrdering:
    def test_independent_ops_need_no_nops(self):
        dfg, nodes = _independent_cluster(4)
        slots = order_cluster(dfg, nodes, [], dependence_distance=5, stage_index=0,
                              needed_until={n: 1 for n in nodes})
        assert _nops(slots) == 0
        assert verify_ordering(dfg, slots, 5) == []

    def test_pure_chain_needs_iwp_minus_one_nops_per_link(self):
        dfg, nodes = _chain_cluster(2)
        slots = order_cluster(dfg, nodes, [], dependence_distance=4, stage_index=0,
                              needed_until={n: 1 for n in nodes})
        # Two dependent instructions: 3 NOPs must sit between them (IWP=4).
        assert _nops(slots) == 3
        assert verify_ordering(dfg, slots, 4) == []

    def test_passes_are_used_as_gap_fillers(self):
        dfg, nodes = _chain_cluster(2)
        passes = [dfg.inputs()[0].node_id] * 0 + [dfg.inputs()[0].node_id]
        slots = order_cluster(dfg, nodes, passes, dependence_distance=3,
                              stage_index=0, needed_until={n: 1 for n in nodes})
        # The pass fills one of the two required gap slots, one NOP remains.
        assert _nops(slots) == 1
        kinds = [s.kind for s in slots]
        assert SlotKind.PASS in kinds

    def test_lower_iwp_needs_fewer_nops(self):
        dfg, nodes = _chain_cluster(3)
        needed = {n: 1 for n in nodes}
        nops_by_distance = {
            distance: _nops(
                order_cluster(dfg, nodes, [], distance, 0, needed)
            )
            for distance in (5, 4, 3)
        }
        assert nops_by_distance[5] >= nops_by_distance[4] >= nops_by_distance[3]

    def test_zero_distance_disables_the_constraint(self):
        dfg, nodes = _chain_cluster(4)
        slots = order_cluster(dfg, nodes, [], 0, 0, {n: 1 for n in nodes})
        assert _nops(slots) == 0

    def test_write_back_flag_set_for_in_cluster_consumers(self):
        dfg, nodes = _chain_cluster(3)
        slots = order_cluster(dfg, nodes, [], 3, 0, {n: 1 for n in nodes})
        by_value = {s.value_id: s for s in slots if s.kind is SlotKind.COMPUTE}
        assert by_value[nodes[0]].write_back          # consumed by nodes[1]
        assert by_value[nodes[1]].write_back
        assert not by_value[nodes[2]].write_back      # only consumed downstream

    def test_forward_flag_reflects_needed_until(self):
        dfg, nodes = _chain_cluster(2)
        needed = {nodes[0]: 0, nodes[1]: 3}
        slots = order_cluster(dfg, nodes, [], 3, 0, needed)
        by_value = {s.value_id: s for s in slots if s.kind is SlotKind.COMPUTE}
        assert not by_value[nodes[0]].forward   # internal value (NDF set)
        assert by_value[nodes[1]].forward

    def test_every_compute_scheduled_exactly_once(self):
        dfg, nodes = _independent_cluster(6)
        slots = order_cluster(dfg, nodes, [], 4, 0, {n: 1 for n in nodes})
        computed = [s.value_id for s in slots if s.kind is SlotKind.COMPUTE]
        assert sorted(computed) == sorted(nodes)


class TestVerification:
    def test_verify_detects_spacing_violation(self):
        dfg, nodes = _chain_cluster(2)
        slots = order_cluster(dfg, nodes, [], 0, 0, {n: 1 for n in nodes})
        assert verify_ordering(dfg, slots, 0) == []
        violations = verify_ordering(dfg, slots, 5)
        assert violations and "IWP" in violations[0]
