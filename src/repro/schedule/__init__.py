"""Scheduling: mapping kernel DFGs onto linear TM overlays.

* :mod:`repro.schedule.registry` — the scheduler-strategy registry
  (``auto``/``linear``/``clustered``/``modulo``, plus user-registered
  strategies) behind :func:`schedule_kernel`'s ``scheduler`` knob.
* :mod:`repro.schedule.asap` / :mod:`repro.schedule.alap` — levelization.
* :mod:`repro.schedule.linear` — ASAP mapping for critical-path-depth
  overlays ([14]/V1/V2) and for shallow kernels on fixed-depth overlays.
* :mod:`repro.schedule.greedy` — iterative greedy cluster scheduling for
  fixed-depth write-back overlays (V3-V5).
* :mod:`repro.schedule.modulo` — iterative modulo scheduling: the analytic
  CGRA comparison *and* the executable ``modulo`` strategy.
* :mod:`repro.schedule.ordering` — IWP-aware intra-cluster ordering with NOP
  insertion.
* :mod:`repro.schedule.ii` — the analytic initiation-interval models
  (Equations 1/2 and the V2 / fixed-depth extensions).
* :mod:`repro.schedule.types` — schedule data structures.
"""

from .types import OverlaySchedule, ScheduledOp, SlotKind, StageSchedule
from .asap import asap_assignment, schedule_depth
from .alap import alap_assignment
from .linear import build_stage_schedules, schedule_linear
from .greedy import (
    build_clustered_stages,
    cluster_membership,
    initial_cluster_assignment,
    refine_assignment,
    schedule_fixed_depth,
)
from .ordering import (
    chain_lengths,
    intra_cluster_dependences,
    order_cluster,
    verify_ordering,
)
from .modulo import (
    ModuloSchedule,
    minimum_ii,
    modulo_schedule,
    modulo_stage_assignment,
    recurrence_minimum_ii,
    resource_minimum_ii,
    schedule_modulo,
)
from .registry import (
    DEFAULT_SCHEDULER,
    Scheduler,
    SchedulerStrategy,
    get_scheduler,
    register_scheduler,
    schedule_with,
    scheduler_names,
    scheduler_strategies,
    unregister_scheduler,
)
from .ii import (
    analytic_ii,
    ii_equation_baseline,
    ii_equation_overlapped,
    minimum_ii_bound,
    per_stage_ii,
    stage_ii,
)


def schedule_kernel(dfg, overlay, scheduler: str = DEFAULT_SCHEDULER):
    """Schedule a kernel with a registered scheduling strategy.

    The default ``"auto"`` strategy preserves the historical policy dispatch
    bit-identically: fixed-depth overlays use the greedy cluster scheduler
    (falling back to ASAP when the kernel is shallow enough),
    critical-path-depth overlays use ASAP scheduling.  Any other registered
    strategy name (``"linear"``, ``"clustered"``, ``"modulo"``, or a
    user-registered one — see :mod:`repro.schedule.registry`) selects that
    strategy instead.  This is the single entry point the rest of the
    library (cache, metrics, CLI, benches) uses.
    """
    return schedule_with(scheduler, dfg, overlay)


__all__ = [
    "OverlaySchedule",
    "StageSchedule",
    "ScheduledOp",
    "SlotKind",
    "schedule_kernel",
    "schedule_linear",
    "schedule_fixed_depth",
    "build_stage_schedules",
    "build_clustered_stages",
    "cluster_membership",
    "initial_cluster_assignment",
    "refine_assignment",
    "asap_assignment",
    "schedule_depth",
    "alap_assignment",
    "order_cluster",
    "intra_cluster_dependences",
    "chain_lengths",
    "verify_ordering",
    "analytic_ii",
    "per_stage_ii",
    "stage_ii",
    "ii_equation_baseline",
    "ii_equation_overlapped",
    "minimum_ii_bound",
    "ModuloSchedule",
    "modulo_schedule",
    "modulo_stage_assignment",
    "schedule_modulo",
    "minimum_ii",
    "resource_minimum_ii",
    "recurrence_minimum_ii",
    "DEFAULT_SCHEDULER",
    "Scheduler",
    "SchedulerStrategy",
    "register_scheduler",
    "unregister_scheduler",
    "get_scheduler",
    "schedule_with",
    "scheduler_names",
    "scheduler_strategies",
]
