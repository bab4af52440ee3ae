"""ALAP scheduling: the ``alap`` strategy.

ALAP levels answer "how late can this operation go without stretching the
schedule"; the ``alap`` strategy sinks every operation to that stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dfg.analysis import alap_levels, dfg_depth
from ..dfg.graph import DFG


def alap_assignment(dfg: DFG, depth: Optional[int] = None) -> Dict[int, int]:
    """Map every operation to its ALAP stage (level - 1) for a given depth."""
    levels = alap_levels(dfg, depth=depth)
    return {n.node_id: levels[n.node_id] - 1 for n in dfg.operations()}


def schedule_alap(dfg: DFG, overlay) -> "OverlaySchedule":
    """As-late-as-possible scheduling as an executable strategy.

    The mirror image of the ASAP policy in :mod:`repro.schedule.linear`:
    every operation sinks to the latest stage that still lets its consumers
    meet their deadline, so values are computed as close to their uses as
    possible (minimal result lifetimes, maximal load lifetimes).  Shallow
    kernels map one ALAP level per FU; kernels deeper than a write-back
    overlay compress contiguous runs of ALAP levels into balanced clusters
    and reuse the fixed-depth stage builder (IWP NOP spacing included).

    Raises
    ------
    InfeasibleScheduleError
        If the kernel is deeper than a feed-forward (non-write-back)
        overlay, or an ALAP stage exceeds the FU instruction memory (the
        late packing trades stage balance for lifetime locality, so it
        declares infeasible what the greedy clustering might still fit).
    """
    from ..errors import InfeasibleScheduleError
    from .greedy import build_clustered_stages
    from .linear import build_stage_schedules
    from .types import OverlaySchedule

    num_stages = overlay.depth
    kernel_depth = dfg_depth(dfg)
    if kernel_depth <= num_stages:
        assignment = alap_assignment(dfg, depth=num_stages)
        stages = build_stage_schedules(dfg, assignment, num_stages)
    else:
        if not overlay.variant.write_back:
            raise InfeasibleScheduleError(
                f"kernel {dfg.name!r} (depth {kernel_depth}) exceeds the depth "
                f"of overlay {overlay.name} and the "
                f"{overlay.variant.paper_label} FU has no write-back path to "
                "fold levels"
            )
        assignment = _compressed_alap_assignment(dfg, kernel_depth, num_stages)
        stages = build_clustered_stages(dfg, assignment, overlay)
    imem = overlay.variant.instruction_memory_depth
    for stage in stages:
        if stage.num_instructions > imem:
            raise InfeasibleScheduleError(
                f"ALAP stage {stage.stage} of kernel {dfg.name!r} needs "
                f"{stage.num_instructions} instruction slots but the "
                f"{overlay.variant.paper_label} instruction memory holds {imem}"
            )
    return OverlaySchedule(
        dfg=dfg,
        overlay=overlay,
        assignment=assignment,
        stages=stages,
        scheduler="alap",
    )


def _compressed_alap_assignment(
    dfg: DFG, kernel_depth: int, num_stages: int
) -> Dict[int, int]:
    """Fold ALAP levels into ``num_stages`` contiguous, balanced clusters.

    Levels stay in order (so every dependence points forward or sideways),
    clusters close once they hold their share of the operations, and a
    cluster is never left without a level — the ALAP twin of
    :func:`repro.schedule.greedy.initial_cluster_assignment`.
    """
    levels = alap_assignment(dfg)
    members: List[List[int]] = [[] for _ in range(kernel_depth)]
    for node_id, level in levels.items():
        members[level].append(node_id)
    total = len(levels)

    assignment: Dict[int, int] = {}
    cluster = 0
    seen = 0
    nonempty = False
    for level in range(kernel_depth):
        remaining = kernel_depth - level
        if cluster < num_stages - 1 and nonempty:
            forced = remaining == num_stages - cluster
            if forced or seen * num_stages >= (cluster + 1) * total:
                cluster += 1
                nonempty = False
        for node_id in members[level]:
            assignment[node_id] = cluster
        seen += len(members[level])
        nonempty = nonempty or bool(members[level])
    return assignment
