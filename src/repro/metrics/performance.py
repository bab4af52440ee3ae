"""Kernel/overlay performance evaluation (the quantities behind Fig. 6).

For a kernel mapped onto an overlay the paper reports:

* the initiation interval (II) in cycles,
* the throughput in giga-operations per second:
  ``GOPS = #ops * f / II`` (each data block executes every DFG operation once
  and a new block starts every II cycles),
* the latency in nanoseconds for one data block to traverse the overlay,
* the FPGA resources of the overlay instance.

The clock frequency comes from the calibrated resource model
(:func:`repro.overlay.resources.overlay_fmax_mhz`).  The II and latency can
be taken either from the analytic models (fast, used for sweeps) or measured
with the cycle-accurate simulator (``simulate=True``), which also verifies
functional correctness against the golden reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..dfg.analysis import dfg_depth
from ..dfg.graph import DFG
from ..errors import ConfigurationError
from ..overlay.architecture import LinearOverlay
from ..schedule import analytic_ii
from ..schedule.types import OverlaySchedule


def throughput_gops(num_operations: int, ii: float, fmax_mhz: float) -> float:
    """Giga-operations per second: ``#ops * f / II``."""
    if ii <= 0:
        raise ConfigurationError("II must be positive")
    return num_operations * fmax_mhz * 1e6 / ii / 1e9


def latency_ns(latency_cycles: float, fmax_mhz: float) -> float:
    """Convert a latency in cycles to nanoseconds at the given frequency."""
    if fmax_mhz <= 0:
        raise ConfigurationError("frequency must be positive")
    return latency_cycles * 1e3 / fmax_mhz


def analytic_latency_cycles(schedule: OverlaySchedule) -> float:
    """Analytic upper-bound latency model: ``II_lane * depth + pipeline - 1``.

    Each of the ``depth`` stages holds a block for one (per-lane) initiation
    interval, plus the ALU pipeline of the final stage.  The simulator
    measures a slightly smaller value because the first block does not pay
    the full II at every stage; both numbers are reported in EXPERIMENTS.md.
    """
    per_lane_ii = analytic_ii(schedule) * schedule.variant.lanes
    return per_lane_ii * schedule.depth + schedule.variant.alu_pipeline_depth - 1


@dataclass
class PerformanceResult:
    """Performance of one kernel on one overlay."""

    kernel_name: str
    overlay_name: str
    variant_name: str
    num_operations: int
    kernel_depth: int
    overlay_depth: int
    ii: float
    fmax_mhz: float
    throughput_gops: float
    latency_cycles: float
    latency_ns: float
    dsp_blocks: int
    logic_slices: int
    scheduler: str
    measured_ii: Optional[float] = None
    simulated: bool = False
    reference_match: Optional[bool] = None

    def as_row(self) -> Dict[str, object]:
        """Flat dict representation used by the report tables and benches."""
        return {
            "kernel": self.kernel_name,
            "overlay": self.overlay_name,
            "variant": self.variant_name,
            "ops": self.num_operations,
            "depth": self.kernel_depth,
            "fus": self.overlay_depth,
            "ii": self.ii,
            "fmax_mhz": round(self.fmax_mhz, 1),
            "gops": round(self.throughput_gops, 3),
            "latency_ns": round(self.latency_ns, 1),
            "dsp": self.dsp_blocks,
            "slices": self.logic_slices,
            "scheduler": self.scheduler,
        }


def analytic_performance(
    dfg: DFG, overlay: LinearOverlay, schedule: OverlaySchedule
) -> PerformanceResult:
    """Analytic-model evaluation of one already-scheduled kernel (pure).

    This is the single place the Fig. 6 quantities are computed — by
    delegating the closed-form core (resource estimate, II and latency
    models) to the registered ``analytic`` performance model of
    :mod:`repro.metrics.models` (the same code path the auto-tuner triages
    candidates with) and adding the reporting-only kernel depth (an ASAP
    relevelling the model family deliberately skips — it is metadata, not
    a ranking input).  :meth:`repro.api.Toolchain.evaluate` memoises the
    result on the spec-keyed compiled artifact so warm evaluations copy it
    instead.
    """
    # Imported lazily: models.py builds on this module's helpers.
    from .models import get_model

    pred = get_model("analytic").predict(dfg, overlay, schedule)
    return PerformanceResult(
        kernel_name=dfg.name,
        overlay_name=overlay.name,
        variant_name=overlay.variant.name,
        num_operations=dfg.num_operations,
        kernel_depth=dfg_depth(dfg),
        overlay_depth=overlay.depth,
        ii=pred.ii,
        fmax_mhz=pred.fmax_mhz,
        throughput_gops=pred.throughput_gops,
        latency_cycles=pred.latency_cycles,
        latency_ns=pred.latency_ns,
        dsp_blocks=pred.dsp_blocks,
        logic_slices=pred.logic_slices,
        scheduler=schedule.scheduler,
    )


#: Overlay variants compared throughout the paper's evaluation section.
EVALUATION_VARIANTS = ("baseline", "v1", "v2", "v3", "v4")


def evaluate_kernel_all_overlays(
    dfg: DFG, simulate: bool = False
) -> Dict[str, PerformanceResult]:
    """Evaluate one kernel on every overlay variant of the paper's comparison.

    Each variant is ``Toolchain.evaluate(dfg, OverlaySpec(variant))`` on the
    process-wide default session; ``simulate=True`` adds a 12-block
    simulation (``SimSpec()``).
    """
    from ..api import default_toolchain
    from ..specs import OverlaySpec, SimSpec

    toolchain = default_toolchain()
    sim = SimSpec() if simulate else None
    return {
        variant: toolchain.evaluate(dfg, OverlaySpec(variant=variant), sim=sim)
        for variant in EVALUATION_VARIANTS
    }
