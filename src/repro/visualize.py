"""Text/DOT visualisation helpers.

Everything here is plain text or Graphviz DOT — there is no plotting
dependency — but the output mirrors the figures of the paper:

* :func:`dfg_to_dot` / :func:`clusters_to_dot` — Fig. 2b / Fig. 4 style DFG
  drawings, optionally with the fixed-depth scheduling clusters marked.
* :func:`schedule_listing` — per-FU program listing of a schedule.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .dfg.graph import DFG
from .dfg.serialize import to_dot
from .schedule.types import OverlaySchedule


def dfg_to_dot(dfg: DFG) -> str:
    """Graphviz DOT rendering of a kernel DFG (Fig. 2b style)."""
    return to_dot(dfg, levels=True)


def clusters_to_dot(dfg: DFG, assignment: Mapping[int, int]) -> str:
    """DOT rendering with fixed-depth scheduling clusters (Fig. 4 style).

    Operations of the same cluster are grouped into a Graphviz subgraph
    cluster, mirroring the red dashed groupings of the paper's Fig. 4.
    """
    lines = [f'digraph "{dfg.name}" {{', "  rankdir=TB;", "  node [shape=box];"]
    clusters: Dict[int, List[int]] = {}
    for node_id, cluster in assignment.items():
        clusters.setdefault(cluster, []).append(node_id)
    for node in dfg.nodes():
        if node.node_id in assignment:
            continue
        shape = "ellipse" if (node.is_input or node.is_output) else "box"
        label = node.name if not node.is_const else str(node.value)
        lines.append(f'  n{node.node_id} [label="{label}", shape={shape}];')
    for cluster in sorted(clusters):
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append(f'    label="FU{cluster}"; color=red; style=dashed;')
        for node_id in sorted(clusters[cluster]):
            lines.append(f'    n{node_id} [label="{dfg.node(node_id).name}"];')
        lines.append("  }")
    for edge in dfg.edges():
        lines.append(f"  n{edge.producer} -> n{edge.consumer};")
    lines.append("}")
    return "\n".join(lines)


def schedule_listing(schedule: OverlaySchedule) -> str:
    """Per-FU listing of a schedule: loads, then instruction slots."""
    dfg = schedule.dfg
    lines = [
        f"schedule of {schedule.kernel_name!r} on {schedule.overlay.name} "
        f"({schedule.scheduler} scheduling)"
    ]
    for stage in schedule.stages:
        lines.append(f"FU{stage.stage}:")
        names = ", ".join(dfg.node(v).name for v in stage.load_order)
        lines.append(f"  loads ({stage.num_loads}): {names}")
        for index, slot in enumerate(stage.slots):
            lines.append(f"  [{index:2d}] {slot.describe(dfg)}")
    return "\n".join(lines)

