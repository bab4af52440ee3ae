"""Initiation-interval (II) models (paper Equations 1 and 2 and extensions).

The II is the number of overlay clock cycles between the starts of two
consecutive data blocks in steady state — the quantity the whole paper is
about.  Three analytic models cover the FU variants:

* **[14] baseline** (no load/execute overlap, Eq. 1)::

      II = max_FU( #load + #op + 2 )

  The single-ported register file forces loads and execution to serialise;
  the ``+2`` flushes the FU pipeline between blocks.

* **V1 / V3 / V4 / V5** (rotating register file, Eq. 2)::

      II = max_FU( #load + 1, #op + 2 )

  Loads for the next block overlap execution of the current one; the ``+1``
  separates consecutive data blocks on the load port.

* **V2** (replicated stream datapath)::

      II = II_V1 / 2

  Two 32-bit lanes process two data blocks concurrently, halving the
  effective II (possibly to a fractional value, as in the paper's Table III).

``#op`` counts every occupied instruction slot: DFG operations, pass-through
instructions for values transiting the FU, and (on fixed-depth overlays) the
NOPs inserted to satisfy the internal write-back path.
"""

from __future__ import annotations

from typing import List

from ..overlay.fu import FUVariant, get_variant
from .types import OverlaySchedule, StageSchedule


def ii_equation_baseline(num_loads: int, num_ops: int, flush: int = 2) -> int:
    """Per-FU II of the [14] baseline FU (paper Eq. 1)."""
    return num_loads + num_ops + flush


def ii_equation_overlapped(
    num_loads: int, num_ops: int, load_gap: int = 1, exec_gap: int = 2
) -> int:
    """Per-FU II of a rotating-register-file FU (paper Eq. 2)."""
    return max(num_loads + load_gap, num_ops + exec_gap)


def stage_ii(stage: StageSchedule, variant) -> int:
    """Per-FU (per-lane) II contribution of one stage for one FU variant."""
    return ii_from_counts(stage.num_loads, stage.num_instructions, variant)


def ii_from_counts(num_loads: int, num_instructions: int, variant) -> int:
    """Per-FU II of a stage from its load and instruction-slot counts alone."""
    fu = get_variant(variant)
    if fu.overlap_load_execute:
        return ii_equation_overlapped(
            num_loads,
            num_instructions,
            load_gap=fu.load_block_gap,
            exec_gap=fu.exec_block_gap,
        )
    return ii_equation_baseline(num_loads, num_instructions, flush=fu.exec_block_gap)


def per_stage_ii(schedule: OverlaySchedule) -> List[int]:
    """Per-lane II contribution of every stage of a schedule."""
    return [stage_ii(stage, schedule.variant) for stage in schedule.stages]


def analytic_ii(schedule: OverlaySchedule) -> float:
    """Overall analytic II of a schedule (divided by the lane count for V2)."""
    per_lane = max(per_stage_ii(schedule))
    return per_lane / schedule.variant.lanes


def minimum_ii_bound(num_operations: int, depth: int, variant) -> float:
    """A simple lower bound on the II of any schedule on ``depth`` FUs.

    Each FU executes at least ``ceil(#ops / depth)`` operations per block and
    needs the block gap on top, so no legal schedule can beat this.  Used by
    the scheduler tests as a sanity envelope and by the ablation benches.
    """
    fu = get_variant(variant)
    per_fu_ops = -(-num_operations // depth)  # ceil division
    bound = per_fu_ops + fu.exec_block_gap
    return bound / fu.lanes
