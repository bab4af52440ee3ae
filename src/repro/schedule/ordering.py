"""Dependence-aware intra-cluster instruction ordering with NOP insertion.

On the write-back overlays (V3-V5) several DFG levels can share one FU, so an
instruction may depend on the result of an *earlier instruction of the same
FU*.  The DSP block cannot forward internally, so the consumer must issue at
least IWP slots after its producer ("NOPs equal to IWP-1 must be added
between dependent instructions unless other non-dependent instructions can be
scheduled in between", paper Section IV).

:func:`order_cluster` produces such an ordering with a list scheduler:

1. instructions are prioritised by the length of their in-cluster dependence
   chain (critical chain first), so producers of long chains issue early;
2. pass-through instructions (which never have in-cluster dependences) are
   used as natural gap fillers;
3. a NOP is emitted only when nothing else is ready — matching the paper's
   qspline walk-through, where a single NOP suffices for the V3 overlay and
   none are needed for V4/V5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dfg.graph import DFG
from ..errors import ScheduleError
from .types import ScheduledOp, SlotKind

# Bound once: ``SlotKind.X`` goes through ``EnumType.__getattr__`` per lookup.
_COMPUTE = SlotKind.COMPUTE


def intra_cluster_dependences(
    dfg: DFG, cluster_nodes: Sequence[int]
) -> Dict[int, List[int]]:
    """Map each cluster node to its in-cluster predecessors."""
    members = set(cluster_nodes)
    deps: Dict[int, List[int]] = {}
    for node_id in cluster_nodes:
        node = dfg.node(node_id)
        deps[node_id] = [o for o in node.operands if o in members]
    return deps


def chain_lengths(dfg: DFG, cluster_nodes: Sequence[int]) -> Dict[int, int]:
    """Length of the longest in-cluster dependence chain rooted at each node.

    A node with no in-cluster consumers has length 1; a producer's length is
    one more than its longest in-cluster consumer chain.  Longer chains are
    scheduled first so their latency can be hidden behind other work.
    """
    members = set(cluster_nodes)
    consumers: Dict[int, List[int]] = {n: [] for n in cluster_nodes}
    for node_id in cluster_nodes:
        for operand in dfg.node(node_id).operands:
            if operand in members:
                consumers[operand].append(node_id)

    lengths: Dict[int, int] = {}

    def length(node_id: int, visiting: Set[int]) -> int:
        if node_id in lengths:
            return lengths[node_id]
        if node_id in visiting:  # pragma: no cover - DAG guarantees no cycle
            raise ScheduleError("cyclic dependence inside a cluster")
        visiting.add(node_id)
        downstream = [length(c, visiting) for c in consumers[node_id]]
        visiting.discard(node_id)
        lengths[node_id] = 1 + (max(downstream) if downstream else 0)
        return lengths[node_id]

    for node_id in cluster_nodes:
        length(node_id, set())
    return lengths


def order_cluster(
    dfg: DFG,
    compute_nodes: Sequence[int],
    pass_values: Sequence[int],
    dependence_distance: int,
    stage_index: int,
    needed_until: Dict[int, int],
) -> List[ScheduledOp]:
    """Order one cluster's instructions, inserting NOPs where unavoidable.

    Parameters
    ----------
    dfg:
        The kernel DFG.
    compute_nodes:
        Operation node ids assigned to this cluster (stage).
    pass_values:
        Value ids that transit this stage (loaded upstream values still
        needed downstream); each becomes a PASS instruction.
    dependence_distance:
        Minimum slot distance between an in-cluster producer and its
        consumer (the FU variant's IWP); 0 disables the constraint.
    stage_index:
        Stage number (used for the forward flag).
    needed_until:
        ``value id -> last stage needing it`` map (from
        :func:`repro.dfg.analysis.value_lifetimes`); drives the forward (NDF)
        and write-back flags.

    Returns
    -------
    The ordered instruction slot list, NOPs included.
    """
    deps = intra_cluster_dependences(dfg, compute_nodes)
    priority = chain_lengths(dfg, compute_nodes)
    members = set(compute_nodes)

    unscheduled: Set[int] = set(compute_nodes)
    issue_slot: Dict[int, int] = {}
    pending_passes: List[int] = list(pass_values)
    slots: List[ScheduledOp] = []

    def ready(node_id: int, slot: int) -> bool:
        for producer in deps[node_id]:
            if producer in unscheduled:
                return False
            if dependence_distance and slot - issue_slot[producer] < dependence_distance:
                return False
        return True

    guard = 0
    max_slots = (len(compute_nodes) + len(pass_values) + 2) * max(
        2, dependence_distance + 1
    ) + 16
    while unscheduled or pending_passes:
        guard += 1
        if guard > max_slots:  # pragma: no cover - defensive
            raise ScheduleError(
                f"cluster ordering did not converge for stage {stage_index}"
            )
        slot = len(slots)
        candidates = [n for n in unscheduled if ready(n, slot)]
        if candidates:
            candidates.sort(key=lambda n: (-priority[n], n))
            node_id = candidates[0]
            node = dfg.node(node_id)
            consumed_here = any(
                consumer in members for consumer in dfg.consumer_ids(node_id)
            )
            slots.append(
                ScheduledOp(
                    kind=_COMPUTE,
                    value_id=node_id,
                    opcode=node.opcode,
                    operands=node.operands,
                    write_back=consumed_here,
                    forward=needed_until.get(node_id, stage_index) > stage_index,
                )
            )
            unscheduled.discard(node_id)
            issue_slot[node_id] = slot
        elif pending_passes:
            slots.append(ScheduledOp.passthrough(pending_passes.pop(0)))
        else:
            slots.append(ScheduledOp.nop())
    return slots


def verify_ordering(
    dfg: DFG,
    slots: Sequence[ScheduledOp],
    dependence_distance: int,
) -> List[str]:
    """Check an ordered slot list against the IWP spacing constraint.

    Returns a list of human-readable violations (empty when legal).  Used by
    the property-based tests to validate the list scheduler on random DFGs
    and by the simulator's consistency checks.
    """
    violations: List[str] = []
    produced_at: Dict[int, int] = {}
    for index, slot in enumerate(slots):
        if slot.kind is _COMPUTE and slot.value_id is not None:
            produced_at[slot.value_id] = index
    for index, slot in enumerate(slots):
        if slot.kind is not _COMPUTE:
            continue
        for operand in slot.operands:
            if operand not in produced_at:
                continue
            distance = index - produced_at[operand]
            if distance <= 0:
                violations.append(
                    f"slot {index} consumes value N{operand} before it is produced"
                )
            elif dependence_distance and distance < dependence_distance:
                violations.append(
                    f"slot {index} is only {distance} slots after its producer "
                    f"(IWP requires {dependence_distance})"
                )
    return violations
