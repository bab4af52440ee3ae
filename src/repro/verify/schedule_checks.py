"""Schedule legality checks (family ``SCHED``).

Re-derives, from nothing but the :class:`OverlaySchedule` itself, every
property the scheduling strategies promise: stage shape, operation coverage,
dependence ordering across stages and inside a stage (including the IWP
write-back spacing the paper pads with NOPs), the inter-stage FIFO
discipline that gives the block pipeline its modulo wrap-around semantics
(stage *k* of iteration *i* runs concurrently with stage *k+1* of iteration
*i-1*, so each stage must load exactly what its upstream neighbour emitted,
in emission order), instruction-memory bounds, and the analytic II floor.

Schedule legality is only defined over a structurally valid DFG, so this
pass stays silent when :mod:`repro.verify.dfg_checks` reports errors — the
DFG diagnostics own that failure.

Codes
-----
``SCHED001``  stage count / stage indices disagree with the overlay depth
``SCHED002``  scheduled operations do not cover the DFG (missing, duplicated,
              unknown, or disagreeing with the recorded assignment)
``SCHED003``  dependence edge scheduled backwards across stages (or
              same-stage on a variant without a write-back path)
``SCHED004``  slot consumes a value that is not available at its position
              (not loaded, not a constant, not written back earlier)
``SCHED005``  same-stage dependence closer than the IWP distance
``SCHED006``  stage exceeds the FU instruction-memory depth
``SCHED007``  FIFO discipline broken: a stage's load order is not its
              upstream neighbour's emission order (stage 0: the input stream)
``SCHED008``  scheduled II below the analytic minimum II
``SCHED009``  write-back flag on a variant without a write-back path
``SCHED010``  an output's source is not in the last stage's emission order
              (it never reaches the output FIFO)
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..schedule.ii import analytic_ii, minimum_ii_bound
from ..schedule.types import SlotKind
from .diagnostics import Diagnostic, Severity, pass_error

# Bound once: ``SlotKind.X`` goes through ``EnumType.__getattr__`` per lookup.
_COMPUTE = SlotKind.COMPUTE
_PASS_SLOT = SlotKind.PASS

_error = partial(pass_error, "schedule")


def run(ctx) -> List[Diagnostic]:
    if any(d.severity is Severity.ERROR for d in ctx.dfg_diagnostics):
        return []
    schedule = ctx.schedule
    dfg, overlay = schedule.dfg, schedule.overlay
    variant = overlay.variant
    out: List[Diagnostic] = []

    if len(schedule.stages) != overlay.depth:
        out.append(
            _error(
                "SCHED001",
                f"schedule has {len(schedule.stages)} stages for a "
                f"depth-{overlay.depth} overlay",
            )
        )
    for index, stage in enumerate(schedule.stages):
        if stage.stage != index:
            out.append(
                _error(
                    "SCHED001",
                    f"stage at position {index} carries stage index {stage.stage}",
                    stage=index,
                )
            )

    out.extend(_check_coverage(schedule, dfg))
    out.extend(_check_stage_ordering(schedule, dfg, variant))
    out.extend(_check_fifo_discipline(schedule, dfg))
    out.extend(_check_outputs_emitted(schedule, dfg))

    for index, stage in enumerate(schedule.stages):
        if stage.num_instructions > variant.instruction_memory_depth:
            out.append(
                _error(
                    "SCHED006",
                    f"stage {index} needs {stage.num_instructions} instruction "
                    f"slots but the {variant.paper_label} instruction memory "
                    f"holds {variant.instruction_memory_depth}",
                    stage=index,
                )
            )

    if not out:  # the II floor is meaningless on a malformed schedule
        floor = minimum_ii_bound(dfg.num_operations, overlay.depth, variant)
        scheduled_ii = analytic_ii(schedule)
        if scheduled_ii < floor - 1e-9:
            out.append(
                _error(
                    "SCHED008",
                    f"scheduled II {scheduled_ii:.3f} is below the analytic "
                    f"minimum {floor:.3f}",
                )
            )
    return out


def _stage_of_computes(schedule) -> Dict[int, int]:
    """value id -> stage index of its COMPUTE slot (first occurrence)."""
    placed: Dict[int, int] = {}
    for index, stage in enumerate(schedule.stages):
        for slot in stage.slots:
            if slot.kind is _COMPUTE and slot.value_id is not None:
                placed.setdefault(slot.value_id, index)
    return placed


def _check_coverage(schedule, dfg) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    operations = {node.node_id for node in dfg.operations()}
    seen: Dict[int, int] = {}
    for index, stage in enumerate(schedule.stages):
        for slot_index, slot in enumerate(stage.slots):
            if slot.kind is not _COMPUTE or slot.value_id is None:
                continue
            value = slot.value_id
            if value in seen:
                out.append(
                    _error(
                        "SCHED002",
                        f"operation {value} is scheduled twice "
                        f"(stages {seen[value]} and {index})",
                        stage=index,
                        slot=slot_index,
                        node=value,
                    )
                )
                continue
            seen[value] = index
            if value not in operations:
                out.append(
                    _error(
                        "SCHED002",
                        f"scheduled value {value} is not an operation of "
                        f"DFG {dfg.name!r}",
                        stage=index,
                        slot=slot_index,
                        node=value,
                    )
                )
            elif schedule.assignment.get(value) != index:
                out.append(
                    _error(
                        "SCHED002",
                        f"operation {value} is scheduled in stage {index} but "
                        f"the assignment records stage "
                        f"{schedule.assignment.get(value)}",
                        stage=index,
                        node=value,
                    )
                )
    for value in sorted(operations - set(seen)):
        out.append(
            _error(
                "SCHED002",
                f"operation {value} ({dfg.node(value).name}) is never scheduled",
                node=value,
            )
        )
    return out


def _check_stage_ordering(schedule, dfg, variant) -> List[Diagnostic]:
    """Cross-stage dependence direction, in-stage availability and spacing."""
    out: List[Diagnostic] = []
    placed = _stage_of_computes(schedule)
    distance = variant.dependence_distance

    for node in dfg.operations():
        if node.node_id not in placed:
            continue  # coverage check reports it
        consumer_stage = placed[node.node_id]
        for operand in node.operands:
            producer_stage = placed.get(operand)
            if producer_stage is None:
                continue  # input/constant, or reported by coverage
            if producer_stage > consumer_stage:
                out.append(
                    _error(
                        "SCHED003",
                        f"operation {node.node_id} in stage {consumer_stage} "
                        f"consumes operation {operand} scheduled later "
                        f"(stage {producer_stage})",
                        stage=consumer_stage,
                        node=node.node_id,
                    )
                )
            elif producer_stage == consumer_stage and not variant.write_back:
                out.append(
                    _error(
                        "SCHED003",
                        f"operations {operand} -> {node.node_id} share stage "
                        f"{consumer_stage} but {variant.paper_label} has no "
                        "write-back path for in-FU dependences",
                        stage=consumer_stage,
                        node=node.node_id,
                    )
                )

    for index, stage in enumerate(schedule.stages):
        loaded = set(stage.load_order)
        written_back: Dict[int, int] = {}
        for slot_index, slot in enumerate(stage.slots):
            if slot.write_back and not variant.write_back:
                out.append(
                    _error(
                        "SCHED009",
                        f"slot {slot_index} of stage {index} writes back on "
                        f"{variant.paper_label}, which has no write-back path",
                        stage=index,
                        slot=slot_index,
                    )
                )
            if slot.kind is _COMPUTE:
                needed = slot.operands
            elif slot.kind is _PASS_SLOT:
                needed = (slot.value_id,) if slot.value_id is not None else ()
            else:
                continue
            for operand in needed:
                if operand in dfg and dfg.node(operand).is_const:
                    continue  # constants are preloaded into the RF
                if operand in loaded:
                    continue
                if operand in written_back:
                    gap = slot_index - written_back[operand]
                    if gap < distance:
                        out.append(
                            _error(
                                "SCHED005",
                                f"slot {slot_index} of stage {index} reads "
                                f"value {operand} only {gap} slots after its "
                                f"write-back (IWP distance is {distance})",
                                stage=index,
                                slot=slot_index,
                                node=operand,
                            )
                        )
                    continue
                out.append(
                    _error(
                        "SCHED004",
                        f"slot {slot_index} of stage {index} consumes value "
                        f"{operand}, which is neither loaded, a constant, nor "
                        "written back earlier in the stage",
                        stage=index,
                        slot=slot_index,
                        node=operand,
                    )
                )
            if (
                slot.kind is _COMPUTE
                and slot.write_back
                and slot.value_id is not None
            ):
                written_back[slot.value_id] = slot_index
    return out


def _check_fifo_discipline(schedule, dfg) -> List[Diagnostic]:
    """Each stage must load exactly its upstream emissions, in order."""
    out: List[Diagnostic] = []
    upstream = [node.node_id for node in dfg.inputs()]
    upstream_name = "the input stream"
    for index, stage in enumerate(schedule.stages):
        if list(stage.load_order) != upstream:
            out.append(
                _error(
                    "SCHED007",
                    f"stage {index} loads {list(stage.load_order)} but "
                    f"{upstream_name} delivers {upstream}",
                    stage=index,
                )
            )
        upstream = list(stage.emission_order)
        upstream_name = f"stage {index}"
    return out


def _check_outputs_emitted(schedule, dfg) -> List[Diagnostic]:
    """Every output's source must leave the last stage for the output FIFO."""
    if not schedule.stages:
        return []
    last = len(schedule.stages) - 1
    emitted = set(schedule.stages[last].emission_order)
    out: List[Diagnostic] = []
    for output in dfg.outputs():
        source = output.operands[0]
        if source not in emitted:
            out.append(
                _error(
                    "SCHED010",
                    f"output {output.name} reads value {source}, which the "
                    f"last stage ({last}) never emits to the output FIFO",
                    stage=last,
                    node=output.node_id,
                )
            )
    return out
