"""Fast execution engine: event-driven simulation, compile caching, sweeps.

The :mod:`repro.sim` package is the *golden reference*: it models every FU
cycle by cycle at the value level and is what all correctness claims rest on.
This package makes the same measurements fast enough for production-scale
sweeps:

* :mod:`repro.engine.fastsim` — an event-driven timing simulator that skips
  the per-value bookkeeping, fast-forwards through the periodic steady state
  analytically, and reconstructs the output stream from the functional DFG
  evaluation.  It produces bit-identical :class:`~repro.sim.overlay.SimulationResult`
  contents (outputs, completion cycles, II, latency, stats, high-water marks).
* :mod:`repro.engine.cache` — a compiled-schedule cache keyed on the DFG
  content hash and the overlay configuration, so repeated ``register`` /
  sweep calls never re-run scheduling, register allocation or codegen.
  Together with :mod:`repro.frontend.cache` it forms the end-to-end compile
  cache (source → AST → DFG → schedule → binary); see ``docs/compiler.md``.
* :mod:`repro.engine.sweep` — a (kernels x overlays x variants) grid runner
  that fans points out over a process pool fault-tolerantly (per-point
  retry/quarantine, pool re-creation after a worker death, per-point
  timeouts, streamed partial results) and powers the ``repro-overlay
  sweep`` CLI subcommand and the benchmark harnesses.
* :mod:`repro.engine.store` — a content-keyed persistent sweep result store
  (one atomic JSON entry per point, keyed by the kernel's DFG hash plus the
  resolved specs) that makes grids incremental and killed runs resumable.
* :mod:`repro.engine.faults` — a deterministic fault-injection harness
  (worker crash / raise / stall on chosen points) that the robustness test
  suite uses to prove every degradation path; see ``docs/sweeps.md``.
"""

from .cache import CacheKey, CompiledKernel, ScheduleCache, default_cache, dfg_content_hash
from .fastsim import (
    FastSimulator,
    steady_state_warmup_bound,
    warmup_bound_blocks,
)
from .store import ResultStore
from .sweep import (
    SweepPoint,
    SweepProgress,
    SweepResult,
    build_grid,
    run_point,
    run_sweep,
    run_sweep_spec,
)

__all__ = [
    "CacheKey",
    "CompiledKernel",
    "ScheduleCache",
    "default_cache",
    "dfg_content_hash",
    "FastSimulator",
    "steady_state_warmup_bound",
    "warmup_bound_blocks",
    "ResultStore",
    "SweepPoint",
    "SweepProgress",
    "SweepResult",
    "build_grid",
    "run_point",
    "run_sweep",
    "run_sweep_spec",
]
