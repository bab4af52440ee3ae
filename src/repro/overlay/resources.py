"""FPGA resource and frequency models (paper Fig. 5 and Section V).

No FPGA tools are available in this reproduction, so overlay-level resource
usage and achievable clock frequency are modelled analytically and calibrated
against every data point the paper prints:

* per-FU DSP/LUT/FF counts come straight from Table I;
* overlay logic-slice usage is modelled as a fixed stream-interface cost plus
  a per-FU slice cost, calibrated so the depth-8 figures match the paper
  (V1: 654 slices, V2: 893, V3: 814, V4: 817) and the 2..16 sweep follows
  the linear trend of Fig. 5a;
* Fmax degrades gently as the cascade grows (longer control/routing paths),
  calibrated so a depth-4 V1 overlay lands at ~322 MHz (which reproduces the
  paper's 0.59 GOPS gradient throughput) and the depth-8 V3/V4 overlays land
  at the quoted 286 / 233 MHz.

The Zynq XC7Z020 totals are included so utilisation percentages ("less than
5% of the logic and DSP resources") can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ConfigurationError
from .architecture import LinearOverlay
from .fu import FUVariant, get_variant


#: Xilinx Zynq XC7Z020 device totals (used for utilisation percentages).
ZYNQ_XC7Z020_LOGIC_SLICES = 13300
ZYNQ_XC7Z020_LUTS = 53200
ZYNQ_XC7Z020_FLIP_FLOPS = 106400
ZYNQ_XC7Z020_DSP_BLOCKS = 220

#: Fixed cost of the streaming interface (input/output distributed-RAM FIFOs
#: plus the AXI-attached control logic), in logic slices.
STREAM_INTERFACE_SLICES = 94

#: Per-FU logic-slice cost, calibrated to the depth-8 overlay figures quoted
#: in Section V ((overlay_slices - STREAM_INTERFACE_SLICES) / 8).
_PER_FU_SLICES: Dict[str, float] = {
    "baseline": 57.0,   # estimated from the Table I LUT/FF counts (Fig. 5a trend)
    "v1": 70.0,         # (654 - 94) / 8
    "v2": 99.9,         # (893 - 94) / 8
    "v3": 90.0,         # (814 - 94) / 8
    "v4": 90.4,         # (817 - 94) / 8
    "v5": 93.0,         # estimated (V5 is not reported at overlay level)
}

#: Relative Fmax degradation per additional FU in the cascade, calibrated to
#: the depth-4 gradient throughput (V1), the Fig. 5b trend ([14]/V1/V2) and
#: the quoted depth-8 V3/V4 overlay frequencies.
_FMAX_DEGRADATION_PER_FU: Dict[str, float] = {
    "baseline": 0.012,
    "v1": 0.012,
    "v2": 0.012,
    "v3": 0.0164,
    "v4": 0.0118,
    "v5": 0.012,
}

#: The paper's depth-8 overlay slice counts, kept here as the calibration
#: ground truth so tests (and EXPERIMENTS.md) can check the model against it.
PAPER_DEPTH8_SLICES: Dict[str, int] = {"v1": 654, "v2": 893, "v3": 814, "v4": 817}
PAPER_DEPTH8_FMAX: Dict[str, float] = {"v3": 286.0, "v4": 233.0}


@dataclass(frozen=True)
class OverlayResources:
    """FPGA resources and frequency of one overlay instance."""

    variant_name: str
    depth: int
    dsp_blocks: int
    luts: int
    flip_flops: int
    logic_slices: int
    fmax_mhz: float

    @property
    def dsp_utilisation(self) -> float:
        """Fraction of the Zynq XC7Z020 DSP blocks used."""
        return self.dsp_blocks / ZYNQ_XC7Z020_DSP_BLOCKS

    @property
    def slice_utilisation(self) -> float:
        """Fraction of the Zynq XC7Z020 logic slices used."""
        return self.logic_slices / ZYNQ_XC7Z020_LOGIC_SLICES


def per_fu_slices(variant) -> float:
    """Logic slices contributed by one FU of the given variant."""
    fu = get_variant(variant)
    return _PER_FU_SLICES[fu.name]


def overlay_slices(variant, depth: int) -> int:
    """Logic slices of a depth-``depth`` overlay (stream interface included)."""
    if depth < 1:
        raise ConfigurationError("overlay depth must be at least 1")
    return int(round(STREAM_INTERFACE_SLICES + per_fu_slices(variant) * depth))


def overlay_fmax_mhz(variant, depth: int) -> float:
    """Achievable overlay clock frequency at the given depth.

    A single FU achieves the Table I Fmax; each extra FU in the cascade costs
    a small relative degradation (longer broadcast/control nets), which is
    what Fig. 5b shows for the 2..16 sweep.
    """
    if depth < 1:
        raise ConfigurationError("overlay depth must be at least 1")
    fu = get_variant(variant)
    degradation = _FMAX_DEGRADATION_PER_FU[fu.name]
    factor = max(0.5, 1.0 - degradation * (depth - 1))
    return fu.fmax_mhz * factor


def estimate_resources(overlay: LinearOverlay) -> OverlayResources:
    """Estimate FPGA resources and Fmax for an overlay instance."""
    fu = overlay.variant
    return OverlayResources(
        variant_name=fu.name,
        depth=overlay.depth,
        dsp_blocks=overlay.total_dsp_blocks,
        luts=fu.luts * overlay.depth,
        flip_flops=fu.flip_flops * overlay.depth,
        logic_slices=overlay_slices(fu, overlay.depth),
        fmax_mhz=overlay_fmax_mhz(fu, overlay.depth),
    )


def scalability_sweep(
    variant, depths: Sequence[int] = tuple(range(2, 17, 2))
) -> List[OverlayResources]:
    """Resource/Fmax sweep over overlay sizes (the Fig. 5 x-axis)."""
    fu = get_variant(variant)
    results = []
    for depth in depths:
        overlay = LinearOverlay(variant=fu, depth=depth, fixed_depth=False)
        results.append(estimate_resources(overlay))
    return results

