"""Spatially-configured overlay estimate (II = 1, one FU per DFG node).

Section II: "Spatially configured overlays fully unroll the kernel onto a
pipelined array of FUs, resulting in an initiation interval (II) of 1.  They
provide high performance, but require significant FPGA resources."  The
gradient walk-through in Section III makes the trade concrete: a spatial
implementation needs 11 FUs for an II of 1 where the TM overlay needs 4 FUs
at an II of 11 (or 6 with the V1 improvements).

This module provides that comparison point analytically so the benches and
examples can show both ends of the area/throughput trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dfg.analysis import dfg_depth
from ..dfg.graph import DFG
from ..metrics.performance import latency_ns, throughput_gops
from ..overlay.fu import V1
from ..overlay.resources import overlay_fmax_mhz, overlay_slices


@dataclass(frozen=True)
class SpatialOverlayEstimate:
    """Resources and performance of a fully unrolled (spatial) implementation."""

    kernel_name: str
    num_fus: int
    dsp_blocks: int
    logic_slices: int
    fmax_mhz: float
    ii: float
    throughput_gops: float
    latency_cycles: float
    latency_ns: float


def evaluate_spatial(dfg: DFG) -> SpatialOverlayEstimate:
    """Estimate a spatially-configured implementation of a kernel.

    One FU per DFG operation, II of 1, pipeline latency of one FU stage per
    DFG level.  The V1 FU sets the per-FU resource cost and clock (the
    spatial FUs would not need instruction memories, so this over-estimates
    area slightly — conservative in the TM overlay's favour).
    """
    fu = V1
    num_fus = dfg.num_operations
    fmax = overlay_fmax_mhz(fu, max(1, num_fus))
    ii = 1.0
    latency_cycles = dfg_depth(dfg) * fu.alu_pipeline_depth + 1
    return SpatialOverlayEstimate(
        kernel_name=dfg.name,
        num_fus=num_fus,
        dsp_blocks=fu.dsp_blocks * num_fus,
        logic_slices=overlay_slices(fu, max(1, num_fus)),
        fmax_mhz=fmax,
        ii=ii,
        throughput_gops=throughput_gops(dfg.num_operations, ii, fmax),
        latency_cycles=latency_cycles,
        latency_ns=latency_ns(latency_cycles, fmax),
    )
