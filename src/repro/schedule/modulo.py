"""Iterative modulo scheduling: the [14]-style CGRA baseline, made executable.

Section IV of the paper notes that "most of the existing CGRA architectures
adopt Modulo scheduling, or a derivative algorithm, to achieve a minimum II.
However, Modulo scheduling is based on the assumption that each operation
node is executed in 1 cycle and the transfer of data between two arbitrary
FUs completes in 1 cycle, which is not realistic for highly pipelined
architectures."

This module implements exactly that scheduler (a simplified form of Rau's
iterative modulo scheduling, restricted to acyclic data-flow graphs — the
overlay's target kernels have no loop-carried recurrences), both as the
analytic comparison the paper makes and as a real, registered scheduling
strategy:

* :func:`resource_minimum_ii` — ResMII = ceil(#ops / #FUs);
* :func:`minimum_ii` — MII = max(ResMII, RecMII), where RecMII is 1 for the
  acyclic graphs the overlay streams;
* :func:`modulo_schedule` — assigns every operation a start slot such that at
  most ``num_fus`` operations occupy the same slot modulo II, growing the II
  until a feasible schedule exists (the idealised comparison);
* :func:`schedule_modulo` — **lowers** a modulo schedule onto a concrete
  :class:`~repro.overlay.architecture.LinearOverlay`: the start slots become
  a precedence-monotone stage (FU) assignment, the linear interconnect's
  pass-throughs and the IWP NOP spacing are materialised by the shared stage
  builders, and the result is a normal
  :class:`~repro.schedule.types.OverlaySchedule` that codegen, the register
  allocator and both simulation engines consume like any other.  This is the
  ``modulo`` strategy of :mod:`repro.schedule.registry`.

Comparing the idealised II against the overlay's measured one (Eq. 1/2 plus
pass-through and pipeline effects) quantifies how much the 1-cycle
assumptions hide — the gap the paper's architecture-aware scheduling has to
close by construction instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..dfg.analysis import asap_levels, dfg_depth
from ..dfg.graph import DFG
from ..errors import InfeasibleScheduleError, ScheduleError
from ..overlay.architecture import LinearOverlay


def resource_minimum_ii(dfg: DFG, num_fus: int) -> int:
    """ResMII: every FU executes at most one operation per cycle."""
    if num_fus < 1:
        raise ScheduleError("at least one FU is required")
    return max(1, math.ceil(dfg.num_operations / num_fus))


def minimum_ii(dfg: DFG, num_fus: int) -> int:
    """The classic modulo-scheduling lower bound MII = max(ResMII, RecMII).

    RecMII is 1 on the overlay's acyclic streaming kernels, and ResMII is at
    least 1, so MII is ResMII.
    """
    return resource_minimum_ii(dfg, num_fus)


@dataclass
class ModuloSchedule:
    """Result of the idealised modulo scheduler."""

    dfg_name: str
    num_fus: int
    ii: int
    start_slots: Dict[int, int] = field(default_factory=dict)
    fu_assignment: Dict[int, int] = field(default_factory=dict)

    def operations_in_modulo_slot(self, slot: int) -> List[int]:
        """Operations issued in modulo slot ``slot`` (0 <= slot < II)."""
        return [n for n, t in self.start_slots.items() if t % self.ii == slot]

    def validate(self, dfg: DFG) -> List[str]:
        """Check precedence and resource legality; returns violations."""
        problems: List[str] = []
        for node in dfg.operations():
            start = self.start_slots.get(node.node_id)
            if start is None:
                problems.append(f"operation {node.name} is unscheduled")
                continue
            for operand in node.operands:
                if operand in self.start_slots and self.start_slots[operand] >= start:
                    problems.append(
                        f"{node.name} starts at {start} but its operand "
                        f"N{operand} starts at {self.start_slots[operand]}"
                    )
        for slot in range(self.ii):
            occupancy = len(self.operations_in_modulo_slot(slot))
            if occupancy > self.num_fus:
                problems.append(
                    f"modulo slot {slot} holds {occupancy} ops but only "
                    f"{self.num_fus} FUs exist"
                )
        return problems


def _operation_heights(dfg: DFG) -> Dict[int, int]:
    """Longest all-operation chain from each operation to a sink (inclusive).

    Height-based priorities drive both the idealised scheduler (critical
    chains first) and the lowering's deepest-legal-stage clamp.
    """
    height: Dict[int, int] = {}
    for node_id in reversed(dfg.topological_order()):
        node = dfg.node(node_id)
        if not node.is_operation:
            continue
        consumer_heights = [
            height[c] for c in dfg.consumer_ids(node_id) if c in height
        ]
        height[node_id] = 1 + (max(consumer_heights) if consumer_heights else 0)
    return height


def modulo_schedule(dfg: DFG, num_fus: int) -> ModuloSchedule:
    """Schedule an acyclic kernel under the idealised CGRA assumptions.

    Operations are visited in priority order (deepest first, i.e. longest
    path to a sink) and greedily placed at the earliest cycle that satisfies
    precedence (operands finish one cycle earlier) and the modulo resource
    constraint (at most ``num_fus`` operations per slot modulo II).  If no
    placement exists the II is incremented and scheduling restarts — the
    outer loop of iterative modulo scheduling, without the backtracking that
    cyclic graphs would need — from MII up to ``#ops + depth + 2``.
    """
    if num_fus < 1:
        raise ScheduleError("at least one FU is required")
    levels = asap_levels(dfg)
    # Height-based priority: critical (deep) chains first, ties broken by
    # ASAP level then node id (a total order, so no pre-sort is needed).
    height = _operation_heights(dfg)
    operations = sorted(
        (n.node_id for n in dfg.operations()),
        key=lambda n: (-height[n], levels[n], n),
    )

    ii = minimum_ii(dfg, num_fus)
    ceiling = dfg.num_operations + dfg_depth(dfg) + 2
    while ii <= ceiling:
        placement = _try_schedule(dfg, operations, num_fus, ii)
        if placement is not None:
            start_slots, fu_assignment = placement
            return ModuloSchedule(
                dfg_name=dfg.name,
                num_fus=num_fus,
                ii=ii,
                start_slots=start_slots,
                fu_assignment=fu_assignment,
            )
        ii += 1
    raise InfeasibleScheduleError(
        f"no modulo schedule for {dfg.name!r} on {num_fus} FUs with II <= {ceiling}"
    )


def _try_schedule(dfg, operations, num_fus, ii):
    start_slots: Dict[int, int] = {}
    fu_assignment: Dict[int, int] = {}
    # Occupancy depends only on ``start % ii``, so a start cycle is feasible
    # iff its modulo class has a free FU: the first feasible start lies
    # within ``[earliest, earliest + ii)``, and tracking how many classes
    # still have capacity lets an infeasible II fail in O(1) per operation
    # instead of scanning an O(II x ops) horizon.
    slot_occupancy = [0] * ii
    free_slots = ii
    for node_id in operations:
        node = dfg.node(node_id)
        earliest = 0
        for operand in node.operands:
            if operand in start_slots:
                earliest = max(earliest, start_slots[operand] + 1)
        if free_slots == 0:
            return None
        for start in range(earliest, earliest + ii):
            occupancy = slot_occupancy[start % ii]
            if occupancy < num_fus:
                start_slots[node_id] = start
                fu_assignment[node_id] = occupancy
                slot_occupancy[start % ii] = occupancy + 1
                if occupancy + 1 >= num_fus:
                    free_slots -= 1
                break
    return start_slots, fu_assignment


# ---------------------------------------------------------------------------
# lowering: modulo start slots -> an executable overlay schedule
# ---------------------------------------------------------------------------
def modulo_stage_assignment(
    dfg: DFG, overlay: LinearOverlay, schedule: ModuloSchedule
) -> Dict[int, int]:
    """Lower a modulo schedule's start slots to a legal stage assignment.

    Operations are visited in start-slot order (ties: ASAP level, node id)
    and packed into ``overlay.depth`` balanced groups of
    ``ceil(#ops / depth)`` — the modulo scheduler's own per-FU resource
    bound, so the packing inherits its load balance.  Because start slots
    strictly increase along data edges, the fill order already visits every
    producer before its consumers; two clamps then make the packing legal on
    the *linear* interconnect:

    * **write-back overlays** — a consumer may share its producer's stage
      (the IWP ordering pass spaces them) but never precede it, so each
      operation lands no earlier than its producers' stages;
    * **feed-forward overlays** ([14]/V1/V2) — in-FU dependences are
      impossible, so each operation lands *strictly after* its producers,
      and no deeper than ``depth - height`` (the deepest stage that still
      leaves one stage per remaining chain operation).  Both bounds are
      always satisfiable when the kernel fits the overlay at all.
    """
    depth = overlay.depth
    levels = asap_levels(dfg)
    heights = _operation_heights(dfg)
    ordered = sorted(
        (n.node_id for n in dfg.operations()),
        key=lambda n: (schedule.start_slots[n], levels[n], n),
    )
    per_stage = max(1, math.ceil(len(ordered) / depth))
    write_back = overlay.variant.write_back
    assignment: Dict[int, int] = {}
    for index, node_id in enumerate(ordered):
        fill = min(depth - 1, index // per_stage)
        producers = [
            assignment[o] for o in dfg.node(node_id).operands if o in assignment
        ]
        if write_back:
            earliest = max(producers) if producers else 0
            stage = min(max(fill, earliest), depth - 1)
        else:
            earliest = max(producers) + 1 if producers else 0
            latest = depth - heights[node_id]
            stage = min(max(fill, earliest), latest)
        assignment[node_id] = stage
    return assignment


def schedule_modulo(dfg: DFG, overlay: LinearOverlay) -> OverlaySchedule:
    """Map a kernel onto an overlay with iterative modulo scheduling.

    Runs the Rau-style iterative modulo scheduler with ``overlay.depth``
    FUs, lowers its start slots to a stage assignment
    (:func:`modulo_stage_assignment`) and materialises the per-stage
    programs — loads, pass-throughs, IWP NOP spacing, forward/write-back
    flags — through the same stage builders the other strategies use.  The
    result is a fully executable :class:`OverlaySchedule` (``scheduler ==
    "modulo"``) that codegen, regalloc and both simulation engines consume
    unchanged; its measured II is lower-bounded by :func:`minimum_ii`.

    Raises
    ------
    InfeasibleScheduleError
        If the kernel is deeper than a feed-forward (non-write-back)
        overlay — only the write-back variants can fold DFG levels.
    """
    from .greedy import build_clustered_stages
    from .types import OverlaySchedule

    kernel_depth = dfg_depth(dfg)
    if not overlay.variant.write_back and kernel_depth > overlay.depth:
        raise InfeasibleScheduleError(
            f"kernel {dfg.name!r} (depth {kernel_depth}) exceeds the depth of "
            f"overlay {overlay.name} and the {overlay.variant.paper_label} FU "
            "has no write-back path to fold levels"
        )
    ideal = modulo_schedule(dfg, num_fus=overlay.depth)
    assignment = modulo_stage_assignment(dfg, overlay, ideal)
    stages = build_clustered_stages(dfg, assignment, overlay)
    return OverlaySchedule(
        dfg=dfg,
        overlay=overlay,
        assignment=assignment,
        stages=stages,
        scheduler="modulo",
    )

