"""ASAP scheduling (the mapping policy of the [14]/V1/V2 overlays).

ASAP scheduling assigns every operation to the earliest level its operands
allow; all operations of one level are then allocated to a single FU of the
linear overlay (the paper, Section III).  Because consumers always sit at a
strictly later level than their producers there are never data dependences
*within* an FU's instruction stream, which is what lets the non-write-back
FU designs get away without an internal forwarding path.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..dfg.analysis import asap_stage_assignment, dfg_depth
from ..dfg.graph import DFG
from ..errors import InfeasibleScheduleError


def asap_assignment(dfg: DFG, num_stages: Optional[int] = None) -> Dict[int, int]:
    """Map every operation to its ASAP stage (level - 1).

    ``num_stages`` only validates feasibility: if given and smaller than the
    DFG depth, the kernel cannot be mapped with ASAP scheduling onto that
    many feed-forward stages and :class:`InfeasibleScheduleError` is raised.
    ``None`` (the default) skips the check — there is no ``0`` sentinel.
    """
    depth = dfg_depth(dfg)
    if num_stages is not None and depth > num_stages:
        raise InfeasibleScheduleError(
            f"kernel {dfg.name!r} has depth {depth} but the overlay only has "
            f"{num_stages} stages; use a write-back (fixed-depth) overlay or a "
            "deeper overlay"
        )
    return asap_stage_assignment(dfg)


def schedule_depth(dfg: DFG) -> int:
    """Number of FU stages an ASAP-mapped overlay needs (the DFG depth)."""
    return dfg_depth(dfg)

