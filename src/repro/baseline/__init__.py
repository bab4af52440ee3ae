"""Comparison baselines.

The OLAF'16 overlay the paper compares against (its reference [14]) is
not a separate model: it is the ``baseline`` FU variant
(:data:`repro.overlay.fu.BASELINE`), whose register file serialises loads
and execution (Eq. 1), compiled and simulated like every other variant.

* :mod:`repro.baseline.spatial` — a spatially-configured (fully unrolled)
  overlay with II = 1, the other end of the area/throughput trade-off space
  discussed in Sections I-II.
"""

from .spatial import SpatialOverlayEstimate, evaluate_spatial

__all__ = [
    "SpatialOverlayEstimate",
    "evaluate_spatial",
]
