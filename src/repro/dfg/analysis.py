"""DFG analyses used by the mapping tool flow.

The analyses in this module answer the structural questions the paper's
schedulers and II models need:

* **ASAP / ALAP levels** — ASAP scheduling is the mapping strategy used by
  the [14]/V1/V2 overlays (one DFG level per FU); ALAP levels drive the
  ``alap`` strategy.
* **Depth** — the paper's ``Depth`` column in Table III and the quantity
  that determines how many FUs a non-write-back overlay needs.
* **Stage traffic** — given an assignment of operations to overlay stages
  (FUs), how many values each stage must *load*, *compute*, *pass through*
  and *emit*.  The linear interconnect has no skip connections, so a value
  produced at stage *p* and consumed at stage *c* > *p* + 1 has to transit
  (be loaded and re-emitted by) every stage in between; those pass-throughs
  consume instruction slots and are what makes the per-FU ``#load``/``#op``
  counts of the paper's II equations non-obvious.

Constants are assumed to be pre-loaded into the register file of every FU
that reads them as part of the overlay configuration (they are part of the
kernel's instruction/configuration data, not of the per-iteration data
stream), so they contribute neither loads nor pass-throughs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import DFGValidationError
from .graph import DFG


# ---------------------------------------------------------------------------
# ASAP / ALAP levelization
# ---------------------------------------------------------------------------
def asap_levels(dfg: DFG) -> Dict[int, int]:
    """Compute ASAP levels for every node.

    Inputs and constants are at level 0; an operation is one level after its
    latest-arriving operand; an output node carries the level of the value it
    observes.  The returned dict maps node id to level; it is the caller's
    own copy of the levels the graph shares with its copies.
    """
    return dict(_shared_asap_levels(dfg))


def _shared_asap_levels(dfg: DFG) -> Dict[int, int]:
    """The ASAP levels memoised in :meth:`DFG.derived` (read-only)."""
    derived = dfg.derived()
    levels = derived.asap_levels
    if levels is None:
        levels = {}
        for node_id in dfg.topological_order():
            node = dfg.node(node_id)
            if node.is_input or node.is_const:
                levels[node_id] = 0
            elif node.is_output:
                levels[node_id] = levels[node.operands[0]]
            else:
                levels[node_id] = 1 + max(levels[o] for o in node.operands)
        derived.asap_levels = levels
    return levels


def dfg_depth(dfg: DFG) -> int:
    """The paper's DFG *depth*: the number of operation levels (critical path)."""
    levels = _shared_asap_levels(dfg)
    op_levels = [levels[n.node_id] for n in dfg.operations()]
    return max(op_levels) if op_levels else 0


def alap_levels(dfg: DFG, depth: Optional[int] = None) -> Dict[int, int]:
    """Compute ALAP levels relative to ``depth`` (default: the DFG depth).

    The ALAP level of an operation is the latest level it can occupy without
    stretching the schedule beyond ``depth``.  Inputs/constants get level 0
    and outputs mirror their producer, as in :func:`asap_levels`.
    """
    if depth is None:
        depth = dfg_depth(dfg)
    levels: Dict[int, int] = {}
    for node_id in reversed(dfg.topological_order()):
        node = dfg.node(node_id)
        if node.is_output:
            levels[node_id] = depth
            continue
        consumer_limits: List[int] = []
        for consumer_id in dfg.consumer_ids(node_id):
            consumer = dfg.node(consumer_id)
            if consumer.is_output:
                consumer_limits.append(depth + 1)
            else:
                consumer_limits.append(levels[consumer_id])
        if node.is_input or node.is_const:
            levels[node_id] = 0
        elif not consumer_limits:
            levels[node_id] = depth
        else:
            levels[node_id] = min(consumer_limits) - 1
    return levels


def level_sets(dfg: DFG) -> List[List[int]]:
    """Operation node ids grouped by ASAP level.

    ``result[k]`` holds the ids of operations at level ``k + 1`` (levels are
    1-based for operations); this is exactly the per-FU allocation used by the
    ASAP-mapped overlays.
    """
    levels = _shared_asap_levels(dfg)
    depth = dfg_depth(dfg)
    groups: List[List[int]] = [[] for _ in range(depth)]
    for node in dfg.operations():
        groups[levels[node.node_id] - 1].append(node.node_id)
    return groups


# ---------------------------------------------------------------------------
# stage traffic
# ---------------------------------------------------------------------------
@dataclass
class StageTraffic:
    """Per-stage data/instruction traffic for a stage assignment.

    Attributes
    ----------
    stage:
        Stage (FU) index, 0-based from the input FIFO.
    loads:
        Values this stage receives from the upstream FIFO per iteration
        (primary inputs for stage 0, emitted values of stage ``k-1`` after).
    computes:
        Operation node ids assigned to this stage.
    passes:
        Values this stage merely forwards (loaded and re-emitted via a PASS
        instruction) because a later stage needs them.
    emits:
        Values this stage sends to the next stage (op results that are still
        live downstream plus the pass-throughs).
    """

    stage: int
    loads: List[int] = field(default_factory=list)
    computes: List[int] = field(default_factory=list)
    passes: List[int] = field(default_factory=list)
    emits: List[int] = field(default_factory=list)

    @property
    def num_loads(self) -> int:
        return len(self.loads)


def asap_stage_assignment(dfg: DFG) -> Dict[int, int]:
    """Map each operation to its ASAP stage (level - 1), the V1/V2 mapping."""
    levels = _shared_asap_levels(dfg)
    return {n.node_id: levels[n.node_id] - 1 for n in dfg.operations()}


def stage_traffic(
    dfg: DFG,
    assignment: Mapping[int, int],
    num_stages: Optional[int] = None,
) -> List[StageTraffic]:
    """Compute per-stage traffic for an operation-to-stage assignment.

    Parameters
    ----------
    dfg:
        The kernel DFG.
    assignment:
        Maps every operation node id to a stage index in ``[0, num_stages)``.
        The assignment must respect data dependencies (producer stage <=
        consumer stage); equality is only meaningful on write-back capable
        FUs and is accepted here (the scheduler enforces legality).
    num_stages:
        Overlay depth.  Defaults to ``max(assignment) + 1``.

    Returns
    -------
    list of :class:`StageTraffic`, one per stage.
    """
    return _stage_analysis(dfg, assignment, num_stages)[0]


def _stage_analysis(
    dfg: DFG,
    assignment: Mapping[int, int],
    num_stages: Optional[int] = None,
) -> Tuple[List[StageTraffic], Dict[int, Tuple[int, int]]]:
    """:func:`stage_traffic` together with the :func:`value_lifetimes` it
    is derived from, for stage builders that need both."""
    uses = _value_uses(dfg)
    missing = [
        value_id for value_id, is_input, _, _ in uses if not is_input and value_id not in assignment
    ]
    if missing:
        raise DFGValidationError(
            f"assignment is missing {len(missing)} operation(s): {missing[:5]}"
        )
    if num_stages is None:
        num_stages = (max(assignment.values()) + 1) if assignment else 1
    for node_id, stage in assignment.items():
        if not 0 <= stage < num_stages:
            raise DFGValidationError(
                f"operation {node_id} assigned to stage {stage}, "
                f"but overlay has {num_stages} stages"
            )
    # Constants are configuration data, not stream data: excluded entirely.
    lifetimes = _lifetimes(uses, assignment, num_stages)

    traffic = [StageTraffic(stage=k) for k in range(num_stages)]
    for node_id, stage in sorted(assignment.items()):
        traffic[stage].computes.append(node_id)
    last_fu = num_stages - 1
    for value_id, (p_stage, needed_until) in lifetimes.items():
        # Emission: every stage where the value is present (produced there or
        # loaded there) and still needed downstream forwards it.
        if p_stage >= 0 and needed_until > p_stage:
            traffic[p_stage].emits.append(value_id)
        # Stage k loads the value if it enters from upstream and is still needed.
        for stage in range(p_stage + 1, min(needed_until, last_fu) + 1):
            entry = traffic[stage]
            entry.loads.append(value_id)
            if needed_until > stage:
                entry.passes.append(value_id)
                entry.emits.append(value_id)
    return traffic, lifetimes


def value_lifetimes(dfg: DFG, assignment: Mapping[int, int]) -> Dict[int, Tuple[int, int]]:
    """Return ``value id -> (producer stage, last stage needed)``.

    Primary inputs have producer stage ``-1``; values feeding primary outputs
    are needed up to the output FIFO boundary, one stage past the deepest
    assigned stage.
    """
    num_stages = (max(assignment.values()) + 1) if assignment else 1
    return _lifetimes(_value_uses(dfg), assignment, num_stages)


def _lifetimes(
    uses: Tuple[Tuple[int, bool, Tuple[int, ...], bool], ...],
    assignment: Mapping[int, int],
    num_stages: int,
) -> Dict[int, Tuple[int, int]]:
    lifetimes: Dict[int, Tuple[int, int]] = {}
    for value_id, is_input, consumers, feeds_output in uses:
        produced = -1 if is_input else assignment[value_id]
        # The value must exit through the output FIFO after the last FU.
        needed = max(produced, num_stages) if feeds_output else produced
        for consumer_id in consumers:
            stage = assignment[consumer_id]
            if stage > needed:
                needed = stage
        lifetimes[value_id] = (produced, needed)
    return lifetimes


def _value_uses(dfg: DFG) -> Tuple[Tuple[int, bool, Tuple[int, ...], bool], ...]:
    """``(id, is_input, operation consumer ids, feeds_output)`` per input and
    operation, in id order, memoised in :meth:`DFG.derived` (read-only)."""
    derived = dfg.derived()
    uses = derived.value_uses
    if uses is None:
        rows = []
        for node in dfg.nodes():
            if not (node.is_input or node.is_operation):
                continue
            consumers: Dict[int, None] = {}
            feeds_output = False
            for consumer_id in dfg.consumer_ids(node.node_id):
                consumer = dfg.node(consumer_id)
                if consumer.is_output:
                    feeds_output = True
                elif consumer.is_operation:
                    consumers[consumer_id] = None
            rows.append((node.node_id, node.is_input, tuple(consumers), feeds_output))
        uses = derived.value_uses = tuple(rows)
    return uses

