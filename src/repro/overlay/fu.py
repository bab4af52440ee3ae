"""Functional-unit (FU) variant descriptors — the paper's Table I.

Each :class:`FUVariant` bundles two kinds of information:

* **Architectural parameters** the tool flow and simulator need: whether data
  loads overlap with instruction execution (the rotating register file of
  V1+), whether results can be written back into the register file (V3-V5),
  the internal write-back path length (IWP), the number of datapath lanes
  (V2's replicated stream datapath) and the ALU pipeline depth.
* **FPGA implementation costs** as reported in Table I for a Xilinx Zynq
  XC7Z020: DSP blocks, LUTs, flip-flops and the post-place-and-route Fmax.

The variants:

======== ==== ==== ==== ====== ==== ====================================
variant  DSP  LUT  FF   Fmax   IWP  distinguishing feature
======== ==== ==== ==== ====== ==== ====================================
[14]     1    160  293  325    --   OLAF'16 baseline, no load/exec overlap
V1       1    196  237  334    --   rotating RF: loads overlap execution
V2       2    292  333  335    --   dual stream datapath (64-bit I/O)
V3       1    212  228  323    5    write-back, full pipeline
V4       1    207  163  254    4    write-back, RF output registers removed
V5       1    248  126  182    3    write-back, 2-deep DSP pipeline
======== ==== ==== ==== ====== ==== ====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FUVariant:
    """Parameters of one time-multiplexed functional-unit design."""

    name: str
    """Short identifier used throughout the tool flow (``"v1"``, ``"v3"``...)."""

    paper_label: str
    """Label used in the paper's tables/figures (``"[14]"``, ``"V1"``...)."""

    dsp_blocks: int
    """DSP48E1 blocks per FU."""

    luts: int
    """LUTs per FU (Zynq XC7Z020, from Table I)."""

    flip_flops: int
    """Flip-flops per FU (Table I)."""

    fmax_mhz: float
    """Post-P&R maximum frequency of a single FU on Zynq XC7Z020 (Table I)."""

    overlap_load_execute: bool
    """True if the rotating register file lets loads overlap execution (V1+)."""

    write_back: bool
    """True if the ALU result can be written back into the register file."""

    iwp: Optional[int]
    """Internal write-back path length in cycles (V3: 5, V4: 4, V5: 3)."""

    lanes: int = 1
    """Replicated stream datapaths (V2 has 2, everything else 1)."""

    alu_pipeline_depth: int = 5
    """Cycles from instruction issue to the result reaching Data_out."""

    rf_depth: int = 32
    """Register-file entries (a RAM32M primitive)."""

    rf_read_ports: int = 2
    """Simultaneous operand reads per cycle."""

    rf_write_ports: int = 1
    """Simultaneous stream writes per cycle (per lane)."""

    instruction_width_bits: int = 32
    """FU instruction word width."""

    instruction_memory_depth: int = 32
    """Instructions the LUTRAM instruction memory can hold per FU."""

    data_width_bits: int = 32
    """Stream data width per lane."""

    fmax_virtex7_mhz: Optional[float] = None
    """Fmax on a Virtex-7 VC707 where the paper reports it (V1: 610 MHz)."""

    # ------------------------------------------------------------------
    @property
    def stream_width_bits(self) -> int:
        """Total stream I/O width (V2 doubles it to 64 bits)."""
        return self.data_width_bits * self.lanes

    @property
    def rf_frame_capacity(self) -> int:
        """Values one iteration may keep live in the register file.

        Variants with load/execute overlap double-buffer the register file
        through the rotating offset counter, so an iteration only owns half
        of the physical entries; the [14] baseline serialises loads and
        execution and can use the full depth.
        """
        return self.rf_depth // 2 if self.overlap_load_execute else self.rf_depth

    @property
    def exec_block_gap(self) -> int:
        """Idle execution slots between data blocks (the paper's ``+2``)."""
        return 2

    @property
    def load_block_gap(self) -> int:
        """Idle load slots between data blocks (the paper's ``+1``)."""
        return 1

    @property
    def supports_fixed_depth(self) -> bool:
        """Fixed-depth overlays require write-back (V3-V5)."""
        return self.write_back

    @property
    def dependence_distance(self) -> int:
        """Minimum instruction-slot distance between dependent in-FU ops.

        Equal to the IWP for write-back variants (the paper inserts
        ``IWP - 1`` NOPs between adjacent dependent instructions, i.e. a slot
        distance of IWP); variants without write-back cannot have in-FU
        dependences so the distance is irrelevant and reported as 0.
        """
        return self.iwp if self.write_back and self.iwp else 0


BASELINE = FUVariant(
    name="baseline",
    paper_label="[14]",
    dsp_blocks=1,
    luts=160,
    flip_flops=293,
    fmax_mhz=325.0,
    overlap_load_execute=False,
    write_back=False,
    iwp=None,
    alu_pipeline_depth=5,
)

V1 = FUVariant(
    name="v1",
    paper_label="V1",
    dsp_blocks=1,
    luts=196,
    flip_flops=237,
    fmax_mhz=334.0,
    overlap_load_execute=True,
    write_back=False,
    iwp=None,
    alu_pipeline_depth=5,
    fmax_virtex7_mhz=610.0,
)

V2 = FUVariant(
    name="v2",
    paper_label="V2",
    dsp_blocks=2,
    luts=292,
    flip_flops=333,
    fmax_mhz=335.0,
    overlap_load_execute=True,
    write_back=False,
    iwp=None,
    lanes=2,
    alu_pipeline_depth=5,
)

V3 = FUVariant(
    name="v3",
    paper_label="V3",
    dsp_blocks=1,
    luts=212,
    flip_flops=228,
    fmax_mhz=323.0,
    overlap_load_execute=True,
    write_back=True,
    iwp=5,
    alu_pipeline_depth=5,
)

V4 = FUVariant(
    name="v4",
    paper_label="V4",
    dsp_blocks=1,
    luts=207,
    flip_flops=163,
    fmax_mhz=254.0,
    overlap_load_execute=True,
    write_back=True,
    iwp=4,
    alu_pipeline_depth=4,
)

V5 = FUVariant(
    name="v5",
    paper_label="V5",
    dsp_blocks=1,
    luts=248,
    flip_flops=126,
    fmax_mhz=182.0,
    overlap_load_execute=True,
    write_back=True,
    iwp=3,
    alu_pipeline_depth=3,
)


#: All FU variants keyed by their short name.
FU_VARIANTS: Dict[str, FUVariant] = {
    v.name: v for v in (BASELINE, V1, V2, V3, V4, V5)
}

#: Aliases accepted by :func:`get_variant`.
_ALIASES: Dict[str, str] = {
    "[14]": "baseline",
    "olaf16": "baseline",
    "li2016": "baseline",
    "base": "baseline",
}


def get_variant(name) -> FUVariant:
    """Look up an FU variant by name, alias or pass through an instance."""
    if isinstance(name, FUVariant):
        return name
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    if key not in FU_VARIANTS:
        raise ConfigurationError(
            f"unknown FU variant {name!r}; available: {', '.join(FU_VARIANTS)}"
        )
    return FU_VARIANTS[key]
