"""The OLAF'16 baseline overlay (the paper's reference [14]).

The baseline shares the linear TM structure of Fig. 1 but uses the original
iDEA-style FU: a dual-port (1 read, 1 read/write) register file with no
rotating offset counter, so data loads and instruction execution cannot
overlap and the II follows Eq. 1 (``#load + #op + 2``).  Everything else —
ASAP scheduling, one DFG level per FU, per-kernel overlay depth — is
identical, which is why the same scheduler and simulator are reused with the
``baseline`` FU variant.
"""

from __future__ import annotations

from ..dfg.graph import DFG
from ..metrics.performance import PerformanceResult
from ..overlay.architecture import LinearOverlay
from ..overlay.fu import BASELINE


def baseline_overlay_for(dfg: DFG) -> LinearOverlay:
    """Critical-path-depth overlay built from the [14] baseline FU."""
    return LinearOverlay.for_kernel(BASELINE, dfg)


def evaluate_baseline(dfg: DFG, simulate: bool = False) -> PerformanceResult:
    """Map and evaluate a kernel on the [14] baseline overlay."""
    from ..api import default_toolchain
    from ..specs import OverlaySpec, SimSpec

    sim = SimSpec() if simulate else None
    return default_toolchain().evaluate(dfg, OverlaySpec(variant=BASELINE), sim=sim)


def expected_ii(num_loads: int, num_ops: int) -> int:
    """Paper Eq. 1 for a single FU of the baseline overlay."""
    return num_loads + num_ops + 2
