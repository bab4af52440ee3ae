"""Dual-overlay tiles connected by a lightweight NoC (Section III-A.3).

The paper proposes packaging two depth-8 fixed overlays into a *tile*, with
replicated tiles connected through a Hoplite-style unidirectional torus NoC.
Within a tile the two overlays can be composed in two ways:

* **series** — chained back to back, forming a single depth-16 overlay for
  kernels whose clustered schedule wants more stages;
* **parallel** — fed from a shared input stream, forming a dual-datapath
  depth-8 overlay with twice the throughput (the V2 idea applied at the
  overlay level instead of inside the FU).

This module models the composition rules and the extra resources of the NoC
router so the design-space benches can compare a V2-based overlay against a
parallel tile of V3 overlays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError
from .architecture import LinearOverlay
from .fu import get_variant
from .resources import OverlayResources, estimate_resources


#: Logic-slice cost of one Hoplite-style router (from the austere NoC the
#: paper cites: a few dozen LUTs per router).
HOPLITE_ROUTER_SLICES = 20


class TileTopology(enum.Enum):
    """How the two overlays inside a tile are composed."""

    SERIES = "series"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class OverlayTile:
    """Two equal-depth overlays plus a NoC router port."""

    overlay: LinearOverlay
    topology: TileTopology = TileTopology.PARALLEL

    def __post_init__(self) -> None:
        if not self.overlay.variant.write_back:
            raise ConfigurationError(
                "tiles are built from fixed-depth (write-back) overlays; "
                f"{self.overlay.variant.paper_label} does not support write-back"
            )

    # ------------------------------------------------------------------
    @property
    def effective_depth(self) -> int:
        """Depth seen by the scheduler (doubled when composed in series)."""
        if self.topology is TileTopology.SERIES:
            return self.overlay.depth * 2
        return self.overlay.depth

    @property
    def effective_lanes(self) -> int:
        """Parallel data lanes seen by the stream interface."""
        if self.topology is TileTopology.PARALLEL:
            return self.overlay.lanes * 2
        return self.overlay.lanes

    @property
    def num_fus(self) -> int:
        return self.overlay.depth * 2

    def as_overlay(self) -> LinearOverlay:
        """The single logical overlay this tile presents to the mapper."""
        if self.topology is TileTopology.SERIES:
            return self.overlay.resized(self.overlay.depth * 2)
        return self.overlay

    def resources(self) -> OverlayResources:
        """Resources of the full tile (two overlays + one NoC router)."""
        single = estimate_resources(self.overlay)
        return OverlayResources(
            variant_name=single.variant_name,
            depth=self.num_fus,
            dsp_blocks=single.dsp_blocks * 2,
            luts=single.luts * 2,
            flip_flops=single.flip_flops * 2,
            logic_slices=single.logic_slices * 2 + HOPLITE_ROUTER_SLICES,
            fmax_mhz=single.fmax_mhz,
        )


def tile_grid(
    tile: OverlayTile, rows: int, columns: int
) -> Tuple[List[OverlayTile], OverlayResources]:
    """Replicate a tile across a ``rows x columns`` NoC torus.

    Returns the tile list and the aggregate resources (including one Hoplite
    router per tile).  Useful for the "how many tiles fit on this device"
    style exploration the paper gestures at.
    """
    if rows < 1 or columns < 1:
        raise ConfigurationError("tile grid dimensions must be positive")
    count = rows * columns
    tiles = [tile] * count
    single = tile.resources()
    aggregate = OverlayResources(
        variant_name=single.variant_name,
        depth=single.depth * count,
        dsp_blocks=single.dsp_blocks * count,
        luts=single.luts * count,
        flip_flops=single.flip_flops * count,
        logic_slices=single.logic_slices * count,
        fmax_mhz=single.fmax_mhz,
    )
    return tiles, aggregate


def max_tiles_on_device(tile: OverlayTile, device_slices: int, device_dsps: int) -> int:
    """How many tiles fit on a device within 80% utilisation."""
    resources = tile.resources()
    by_slices = math.floor(device_slices * 0.8 / resources.logic_slices)
    by_dsps = math.floor(device_dsps * 0.8 / resources.dsp_blocks)
    return max(0, min(by_slices, by_dsps))
