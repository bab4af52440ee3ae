"""ASAP (linear) scheduling onto critical-path-depth overlays.

This is the mapping used by the [14] baseline and the V1/V2 overlays: every
ASAP level of the DFG becomes one FU of the overlay.  The scheduler's job is
mostly bookkeeping:

* figure out, per stage, which values arrive from upstream (loads), which
  operations execute, and which values must be re-emitted for later stages
  (pass-throughs) — the linear interconnect has no skip connections;
* order the per-stage instruction slots and derive the emission order, which
  becomes the next stage's load (arrival) order;
* mark the forward/write-back flags (always forward / never write back under
  ASAP, since all consumers live strictly downstream).

If the overlay is deeper than the kernel, trailing stages simply pass the
output values through (this is how the paper maps the depth <= 8 benchmarks
onto the fixed depth-8 V3/V4 overlays with plain ASAP scheduling).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dfg.analysis import StageTraffic, _stage_analysis
from ..dfg.graph import DFG
from ..errors import InfeasibleScheduleError
from ..overlay.architecture import LinearOverlay
from .asap import asap_assignment, schedule_depth
from .types import OverlaySchedule, ScheduledOp, SlotKind, StageSchedule

# Bound once: ``SlotKind.X`` goes through ``EnumType.__getattr__`` per lookup.
_COMPUTE = SlotKind.COMPUTE


def schedule_linear(dfg: DFG, overlay: LinearOverlay) -> OverlaySchedule:
    """Map a kernel onto an overlay with ASAP (one level per FU) scheduling.

    Raises
    ------
    InfeasibleScheduleError
        If the kernel's DFG depth exceeds the overlay depth (feed-forward
        overlays cannot fold levels without write-back).
    """
    depth_needed = schedule_depth(dfg)
    if depth_needed > overlay.depth:
        raise InfeasibleScheduleError(
            f"kernel {dfg.name!r} needs {depth_needed} stages but overlay "
            f"{overlay.name} has {overlay.depth}; use greedy fixed-depth "
            "scheduling on a write-back overlay instead"
        )
    assignment = asap_assignment(dfg, num_stages=overlay.depth)
    stages = build_stage_schedules(dfg, assignment, overlay.depth)
    return OverlaySchedule(
        dfg=dfg,
        overlay=overlay,
        assignment=assignment,
        stages=stages,
        scheduler="asap",
    )


def build_stage_schedules(
    dfg: DFG,
    assignment: Dict[int, int],
    num_stages: int,
    slot_order: Optional[Dict[int, Sequence[ScheduledOp]]] = None,
) -> List[StageSchedule]:
    """Construct per-stage programs (loads / slots) from a stage assignment.

    ``slot_order`` optionally supplies a pre-ordered slot list per stage (the
    fixed-depth scheduler uses this to inject its NOP-padded ordering); when
    absent, computes are emitted in node-id order followed by the
    pass-throughs in load order, which is sufficient for ASAP mappings where
    no intra-stage dependences exist.
    """
    traffic, lifetimes = _stage_analysis(dfg, assignment, num_stages)
    return _build_stages(dfg, traffic, lifetimes, slot_order)


def _build_stages(
    dfg: DFG,
    traffic: List[StageTraffic],
    lifetimes: Dict[int, Tuple[int, int]],
    slot_order: Optional[Dict[int, Sequence[ScheduledOp]]] = None,
) -> List[StageSchedule]:
    """:func:`build_stage_schedules` from an assignment's traffic and value
    lifetimes, for builders that derived them already."""
    stages: List[StageSchedule] = []
    previous_emission: List[int] = _input_stream_order(dfg)
    for stage_index, entry in enumerate(traffic):
        load_set = set(entry.loads)
        load_order = [v for v in previous_emission if v in load_set]
        # Defensive: anything the traffic analysis says we load but that the
        # upstream emission somehow missed is appended in id order.
        missing = [v for v in sorted(load_set) if v not in load_order]
        load_order.extend(missing)

        if slot_order is not None and stage_index in slot_order:
            slots = list(slot_order[stage_index])
        else:
            slots = _default_slots(dfg, entry.computes, entry.passes, lifetimes, stage_index)

        stage = StageSchedule(stage=stage_index, load_order=load_order, slots=slots)
        stages.append(stage)
        previous_emission = stage.emission_order
    return stages


def _input_stream_order(dfg: DFG) -> List[int]:
    """Order in which primary-input words appear on the input stream."""
    return [node.node_id for node in dfg.inputs()]


def _default_slots(
    dfg: DFG,
    computes: Sequence[int],
    passes: Sequence[int],
    lifetimes: Dict[int, tuple],
    stage_index: int,
) -> List[ScheduledOp]:
    """Computes in node-id order, then pass-throughs (ASAP stages only)."""
    slots: List[ScheduledOp] = []
    for node_id in sorted(computes):
        node = dfg.node(node_id)
        produced, needed_until = lifetimes.get(node_id, (stage_index, stage_index))
        slots.append(
            ScheduledOp(
                kind=_COMPUTE,
                value_id=node_id,
                opcode=node.opcode,
                operands=node.operands,
                write_back=False,
                forward=needed_until > stage_index,
            )
        )
    for value_id in passes:
        slots.append(ScheduledOp.passthrough(value_id))
    return slots
