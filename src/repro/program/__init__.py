"""Instruction generation: from schedules to FU configuration images.

The last step of the paper's mapping flow ("lastly the 32-bit FU instructions
are generated"):

* :mod:`repro.program.regalloc` — allocate register-file addresses to the
  values each FU keeps resident (loads, constants, written-back results) via
  a linear scan over live intervals, and check the kernel fits the RAM32M
  register file.
* :mod:`repro.program.codegen` — translate each stage's slot list into
  bit-exact :class:`~repro.overlay.isa.Instruction` words plus the load map
  the stream interface uses.
* :mod:`repro.program.binary` — pack per-FU instruction memories into the
  configuration image the ARM core writes over AXI before starting a kernel
  (its size feeds the context-switch model).
"""

from .regalloc import (
    LiveInterval,
    RegisterAllocation,
    allocate_registers,
    allocate_registers_reference,
    compute_live_intervals,
)
from .codegen import FUProgram, OverlayProgram, generate_program
from .binary import ConfigurationImage, build_configuration_image

__all__ = [
    "LiveInterval",
    "RegisterAllocation",
    "allocate_registers",
    "allocate_registers_reference",
    "compute_live_intervals",
    "FUProgram",
    "OverlayProgram",
    "generate_program",
    "ConfigurationImage",
    "build_configuration_image",
]
