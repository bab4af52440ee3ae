"""Iterative greedy cluster scheduling for fixed-depth overlays (V3-V5).

The paper (Section IV): "for a fixed depth overlay we use an iterative greedy
scheduling strategy which groups DFG nodes at each scheduling step into
clusters and then adds DFG nodes along the critical path from subsequent
clusters, while balancing the II across all clusters.  The number of
scheduling clusters is equal to the overlay depth."

Implementation:

1. **Initial clustering** — ASAP levels are partitioned into ``depth``
   contiguous groups with roughly equal operation counts (a level is never
   split at this point, so data dependences are trivially respected).
2. **Refinement** — nodes are greedily moved across adjacent cluster
   boundaries (respecting precedence: a node may only live in a cluster no
   earlier than all of its producers and no later than all of its consumers)
   whenever the move lowers the maximum per-cluster II.  The per-cluster II
   is evaluated with the real cost function: loads, computes, pass-throughs
   *and* the NOPs the IWP spacing forces after intra-cluster ordering.
   Trials are scored from their stage traffic and slot counts
   (:func:`_stage_iis`); only the winning assignment's stages are built.
3. **Ordering** — each cluster's instruction stream is ordered by
   :func:`repro.schedule.ordering.order_cluster`, which hides the write-back
   latency behind independent instructions and only inserts NOPs when it has
   nothing else to issue.

Kernels whose DFG depth already fits the overlay fall back to plain ASAP
scheduling, exactly as the paper does for the depth <= 8 benchmarks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..dfg.analysis import _stage_analysis, dfg_depth, level_sets, stage_traffic
from ..dfg.graph import DFG
from ..errors import InfeasibleScheduleError
from ..overlay.architecture import LinearOverlay
from .ii import ii_from_counts, stage_ii
from .linear import _build_stages, schedule_linear
from .ordering import order_cluster
from .types import OverlaySchedule, ScheduledOp, StageSchedule


def schedule_fixed_depth(
    dfg: DFG,
    overlay: LinearOverlay,
    max_refinement_moves: int = 200,
) -> OverlaySchedule:
    """Map a kernel onto a fixed-depth overlay.

    Kernels no deeper than the overlay use ASAP scheduling (the paper's
    behaviour for the depth <= 8 benchmarks); deeper kernels are clustered.
    """
    kernel_depth = dfg_depth(dfg)
    if kernel_depth <= overlay.depth:
        schedule = schedule_linear(dfg, overlay)
        return schedule
    if not overlay.variant.write_back:
        raise InfeasibleScheduleError(
            f"kernel {dfg.name!r} (depth {kernel_depth}) exceeds the depth of "
            f"overlay {overlay.name} and the {overlay.variant.paper_label} FU has "
            "no write-back path to fold levels"
        )
    assignment = initial_cluster_assignment(dfg, overlay.depth)
    assignment = refine_assignment(dfg, assignment, overlay, max_refinement_moves)
    stages = build_clustered_stages(dfg, assignment, overlay)
    return OverlaySchedule(
        dfg=dfg,
        overlay=overlay,
        assignment=assignment,
        stages=stages,
        scheduler="greedy",
    )


# ---------------------------------------------------------------------------
# initial clustering
# ---------------------------------------------------------------------------
def initial_cluster_assignment(dfg: DFG, num_clusters: int) -> Dict[int, int]:
    """Partition ASAP levels into contiguous clusters with balanced op counts."""
    levels = level_sets(dfg)
    total_levels = len(levels)
    if num_clusters > total_levels:
        raise InfeasibleScheduleError(
            "initial clustering expects more levels than clusters; "
            "use ASAP scheduling instead"
        )
    total_ops = sum(len(level) for level in levels)
    assignment: Dict[int, int] = {}
    level_index = 0
    for cluster in range(num_clusters):
        levels_remaining = total_levels - level_index
        clusters_remaining = num_clusters - cluster
        max_take = levels_remaining - (clusters_remaining - 1)
        ops_remaining = sum(len(level) for level in levels[level_index:])
        target = ops_remaining / clusters_remaining
        taken = 1
        accumulated = len(levels[level_index])
        while taken < max_take and accumulated + len(levels[level_index + taken]) <= target:
            accumulated += len(levels[level_index + taken])
            taken += 1
        for offset in range(taken):
            for node_id in levels[level_index + offset]:
                assignment[node_id] = cluster
        level_index += taken
    return assignment


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------
def _assignment_cost(
    dfg: DFG, assignment: Dict[int, int], overlay: LinearOverlay
) -> Tuple[int, List[StageSchedule]]:
    """Max stage II of an assignment, from its fully built stages.

    The oracle for :func:`_stage_iis`: the tests check that both give the
    same cost on every legal move of random graphs.
    """
    stages = build_clustered_stages(dfg, assignment, overlay)
    cost = max(stage_ii(stage, overlay.variant) for stage in stages)
    return cost, stages


#: ``(compute set, pass count) -> slot count`` of ordered clusters.
_SlotCounts = Dict[Tuple[FrozenSet[int], int], int]


def _stage_iis(
    dfg: DFG, assignment: Dict[int, int], overlay: LinearOverlay, slot_counts: _SlotCounts
) -> List[int]:
    """Per-stage II of an assignment, without building its stages.

    A stage's II depends only on its load count and its slot count, and
    :func:`order_cluster`'s slot count only on the cluster's compute set and
    its pass count: passes are interchangeable gap fillers, and the forward
    flags do not change the count.  ``slot_counts`` memoises those counts
    across the trials of one refinement, so a trial costs one
    :func:`stage_traffic` plus an ordering of each cluster it changed.
    """
    variant = overlay.variant
    iis: List[int] = []
    for entry in stage_traffic(dfg, assignment, num_stages=overlay.depth):
        key = (frozenset(entry.computes), len(entry.passes))
        slots = slot_counts.get(key)
        if slots is None:
            slots = slot_counts[key] = len(
                order_cluster(
                    dfg,
                    compute_nodes=entry.computes,
                    pass_values=entry.passes,
                    dependence_distance=variant.dependence_distance,
                    stage_index=entry.stage,
                    needed_until={},
                )
            )
        iis.append(ii_from_counts(entry.num_loads, slots, variant))
    return iis


def _legal_moves(
    dfg: DFG, assignment: Dict[int, int], node_id: int, num_clusters: int
) -> List[int]:
    """Adjacent clusters this node could legally move to."""
    current = assignment[node_id]
    moves: List[int] = []
    node = dfg.node(node_id)
    producer_clusters = [
        assignment[o] for o in node.operands if o in assignment
    ]
    consumer_clusters = [
        assignment[c]
        for c in dfg.consumer_ids(node_id)
        if c in assignment
    ]
    earliest = max(producer_clusters) if producer_clusters else 0
    latest = min(consumer_clusters) if consumer_clusters else num_clusters - 1
    if current - 1 >= earliest and current - 1 >= 0:
        moves.append(current - 1)
    if current + 1 <= latest and current + 1 < num_clusters:
        moves.append(current + 1)
    return moves


def refine_assignment(
    dfg: DFG,
    assignment: Dict[int, int],
    overlay: LinearOverlay,
    max_moves: int = 200,
) -> Dict[int, int]:
    """Greedily move nodes across cluster boundaries to minimise the max II."""
    assignment = dict(assignment)
    slot_counts: _SlotCounts = {}
    contributions = _stage_iis(dfg, assignment, overlay, slot_counts)
    best_cost = max(contributions)
    for _ in range(max_moves):
        bottleneck = max(range(len(contributions)), key=lambda i: contributions[i])
        bottleneck_nodes = [
            node_id for node_id, cluster in assignment.items() if cluster == bottleneck
        ]
        best_move: Optional[Tuple[int, int]] = None
        best_move_cost = best_cost
        best_move_contributions = contributions
        for node_id in sorted(bottleneck_nodes):
            for target in _legal_moves(dfg, assignment, node_id, overlay.depth):
                trial = dict(assignment)
                trial[node_id] = target
                trial_contributions = _stage_iis(dfg, trial, overlay, slot_counts)
                cost = max(trial_contributions)
                if cost < best_move_cost:
                    best_move_cost = cost
                    best_move = (node_id, target)
                    best_move_contributions = trial_contributions
        if best_move is None:
            break
        assignment[best_move[0]] = best_move[1]
        best_cost = best_move_cost
        contributions = best_move_contributions
    return assignment


# ---------------------------------------------------------------------------
# stage construction
# ---------------------------------------------------------------------------
def build_clustered_stages(
    dfg: DFG, assignment: Dict[int, int], overlay: LinearOverlay
) -> List[StageSchedule]:
    """Build ordered per-stage programs (with NOP insertion) for a clustering."""
    traffic, lifetimes = _stage_analysis(dfg, assignment, overlay.depth)
    needed_until = {value: needed for value, (_, needed) in lifetimes.items()}
    distance = overlay.variant.dependence_distance

    slot_order: Dict[int, Sequence[ScheduledOp]] = {}
    for entry in traffic:
        slot_order[entry.stage] = order_cluster(
            dfg,
            compute_nodes=entry.computes,
            pass_values=entry.passes,
            dependence_distance=distance,
            stage_index=entry.stage,
            needed_until=needed_until,
        )
    return _build_stages(dfg, traffic, lifetimes, slot_order)


def cluster_membership(assignment: Dict[int, int], num_clusters: int) -> List[List[int]]:
    """Node ids per cluster, in id order (reporting / Fig. 4 style output)."""
    clusters: List[List[int]] = [[] for _ in range(num_clusters)]
    for node_id in sorted(assignment):
        clusters[assignment[node_id]].append(node_id)
    return clusters
