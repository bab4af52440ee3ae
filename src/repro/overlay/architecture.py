"""Linear time-multiplexed overlay architecture description.

A :class:`LinearOverlay` is the cascade of Fig. 1: a distributed-RAM input
FIFO, ``depth`` time-multiplexed FUs connected by direct (linear) channels,
and an output FIFO.  Two sizing policies exist, matching the paper:

* **critical-path sized** (``LinearOverlay.for_kernel``) — the [14]/V1/V2
  overlays have one FU per DFG level, so the overlay must be rebuilt
  (partial reconfiguration) whenever the kernel changes;
* **fixed depth** (``LinearOverlay.fixed``) — the write-back capable V3-V5
  overlays keep a constant depth (8 in the paper's evaluation) and absorb
  deeper kernels by packing several DFG levels into one FU, so a kernel
  change is only an instruction-memory update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..dfg.analysis import dfg_depth
from ..dfg.graph import DFG
from ..errors import ConfigurationError
from .fu import FUVariant, get_variant


#: Fixed overlay depth used throughout the paper's evaluation (Section V).
DEFAULT_FIXED_DEPTH = 8


@dataclass(frozen=True)
class LinearOverlay:
    """A linear cascade of ``depth`` time-multiplexed FUs.

    Attributes
    ----------
    variant:
        The FU design used for every stage (see :mod:`repro.overlay.fu`).
    depth:
        Number of FU stages between the input and output FIFOs.
    fixed_depth:
        True if the overlay depth is an architectural constant (V3-V5 usage)
        rather than matched to the mapped kernel's critical path.
    fifo_depth:
        Entries in each distributed-RAM FIFO channel.
    name:
        Optional label used in reports; defaults to ``"<variant>xN"``.
    """

    variant: FUVariant
    depth: int
    fixed_depth: bool = False
    fifo_depth: int = 32
    name: str = ""

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError("overlay depth must be at least 1")
        if self.fifo_depth < 2:
            raise ConfigurationError("FIFO depth must be at least 2")
        if self.fixed_depth and not self.variant.supports_fixed_depth:
            raise ConfigurationError(
                f"FU variant {self.variant.paper_label} has no write-back path and "
                "cannot implement a fixed-depth overlay (only V3-V5 can)"
            )
        if not self.name:
            object.__setattr__(self, "name", self.default_name)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_kernel(cls, variant, dfg: DFG, fifo_depth: int = 32) -> "LinearOverlay":
        """Size a critical-path-depth overlay for one kernel (the V1/V2 policy)."""
        fu = get_variant(variant)
        depth = dfg_depth(dfg)
        if depth == 0:
            raise ConfigurationError(
                f"kernel {dfg.name!r} has no operations to map onto an overlay"
            )
        return cls(variant=fu, depth=depth, fixed_depth=False, fifo_depth=fifo_depth)

    @classmethod
    def fixed(
        cls,
        variant,
        depth: int = DEFAULT_FIXED_DEPTH,
        fifo_depth: int = 32,
    ) -> "LinearOverlay":
        """Build a fixed-depth overlay (the V3-V5 policy; depth 8 in the paper)."""
        return cls(variant=get_variant(variant), depth=depth, fixed_depth=True, fifo_depth=fifo_depth)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def total_dsp_blocks(self) -> int:
        return self.variant.dsp_blocks * self.depth

    @property
    def lanes(self) -> int:
        return self.variant.lanes

    @property
    def stream_width_bits(self) -> int:
        return self.variant.stream_width_bits

    @property
    def default_name(self) -> str:
        """The auto-generated ``<variant>xN`` label for this configuration."""
        return f"{self.variant.paper_label}x{self.depth}"

    def resized(self, depth: int) -> "LinearOverlay":
        """Return a copy of this overlay with a different depth.

        An auto-generated name is regenerated for the new depth (a ``V3x8``
        resized to depth 4 reports ``V3x4``, not a stale ``V3x8``); a custom
        name is preserved as-is.
        """
        name = "" if self.name == self.default_name else self.name
        return replace(self, depth=depth, name=name)

    def describe(self) -> str:
        """Human-readable one-liner used by the CLI and reports."""
        policy = "fixed depth" if self.fixed_depth else "critical-path depth"
        return (
            f"{self.name}: {self.depth} x {self.variant.paper_label} FU "
            f"({policy}, {self.total_dsp_blocks} DSP blocks, "
            f"{self.stream_width_bits}-bit stream)"
        )
