"""Overlay architecture models.

This package describes the *hardware* side of the reproduction:

* :mod:`repro.overlay.fu` — the time-multiplexed functional-unit variants of
  the paper's Table I ([14] baseline and V1-V5) with their architectural
  parameters (ports, write-back, IWP, lanes) and FPGA costs (DSP/LUT/FF,
  Fmax).
* :mod:`repro.overlay.isa` — the 32-bit FU instruction encoding, including
  the WB / NDF bits the paper packs into the unused DSP ``inmode`` field.
* :mod:`repro.overlay.architecture` — the linear overlay (a cascade of TM FUs
  between two stream FIFOs) and its sizing rules.
* :mod:`repro.overlay.resources` — analytic FPGA resource and Fmax models
  calibrated to the paper's Zynq XC7Z020 results (Table I, Fig. 5).
* :mod:`repro.overlay.context_switch` — partial-reconfiguration (PCAP) and
  instruction-load time models behind the paper's context-switch comparison.
* :mod:`repro.overlay.tile` — the proposed dual-overlay tile with a
  lightweight NoC (Section III-A.3).
"""

from .fu import (
    FU_VARIANTS,
    BASELINE,
    V1,
    V2,
    V3,
    V4,
    V5,
    FUVariant,
    get_variant,
)
from .isa import Instruction, InstructionKind, decode_instruction, encode_instruction
from .architecture import LinearOverlay
from .resources import OverlayResources, estimate_resources, overlay_fmax_mhz
from .context_switch import (
    ContextSwitchEstimate,
    context_switch_time_s,
    instruction_load_time_s,
    pcap_configuration_time_s,
    reconfigurable_region,
)
from .tile import OverlayTile, TileTopology

__all__ = [
    "FUVariant",
    "FU_VARIANTS",
    "BASELINE",
    "V1",
    "V2",
    "V3",
    "V4",
    "V5",
    "get_variant",
    "Instruction",
    "InstructionKind",
    "encode_instruction",
    "decode_instruction",
    "LinearOverlay",
    "OverlayResources",
    "estimate_resources",
    "overlay_fmax_mhz",
    "ContextSwitchEstimate",
    "reconfigurable_region",
    "pcap_configuration_time_s",
    "instruction_load_time_s",
    "context_switch_time_s",
    "OverlayTile",
    "TileTopology",
]
