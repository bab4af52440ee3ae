"""repro — reproduction of "A Time-Multiplexed FPGA Overlay with Linear
Interconnect" (Li, Jain, Maskell, Fahmy — DATE 2018).

The package implements the paper's complete system in pure Python:

* the **DFG IR and frontends** (:mod:`repro.dfg`, :mod:`repro.frontend`) that
  stand in for the HercuLeS HLS extraction step,
* the **benchmark kernels** and golden reference models (:mod:`repro.kernels`),
* the **overlay architecture models** — FU variants [14]/V1-V5, the linear
  overlay, calibrated FPGA resource / Fmax / context-switch models
  (:mod:`repro.overlay`),
* the **mapping tool flow** — a pluggable scheduler-strategy registry (ASAP
  linear, fixed-depth greedy clustering, executable iterative modulo
  scheduling, plus user-registered strategies), IWP-aware ordering, register
  allocation, 32-bit instruction generation and configuration images
  (:mod:`repro.schedule`, :mod:`repro.program`),
* the **cycle-accurate simulator** that runs the generated programs and
  measures II / latency while checking functional correctness
  (:mod:`repro.sim`),
* the **metrics and baselines** used to regenerate every table and figure of
  the paper's evaluation (:mod:`repro.metrics`, :mod:`repro.baseline`),
  including the pluggable performance-model family and the scheduler
  auto-tuner built on it (:mod:`repro.metrics.models`, :mod:`repro.tune`),
* the **session API** — the :class:`~repro.api.Toolchain` facade and the
  typed spec objects of :mod:`repro.specs`, the one front door every other
  entry point (CLI, sweeps, tuner, service) adapts to.

Quickstart
----------
>>> from repro import Toolchain, OverlaySpec, SimSpec
>>> tc = Toolchain()
>>> handle = tc.compile("gradient", OverlaySpec("v1"))
>>> round(tc.evaluate(handle).ii, 1)
6.0
>>> tc.simulate(handle, SimSpec(num_blocks=6)).matches_reference
True
"""

from __future__ import annotations

__version__ = "1.1.0"

from .dfg import DFG, DFGBuilder, OpCode
from .engine import (
    FastSimulator,
    ScheduleCache,
    SweepPoint,
    SweepResult,
    build_grid,
    default_cache,
    run_sweep,
)
from .errors import ReproError
from .frontend import parse_c_kernel, trace_kernel
from .kernels import all_benchmarks, get_kernel, kernel_names
from .metrics.models import (
    ModelPrediction,
    PerformanceModel,
    get_model,
    model_names,
    register_model,
)
from .metrics.performance import PerformanceResult
from .overlay import FU_VARIANTS, LinearOverlay, get_variant
from .program.codegen import OverlayProgram, generate_program
from .program.binary import ConfigurationImage, build_configuration_image
from .schedule import (
    OverlaySchedule,
    SchedulerStrategy,
    analytic_ii,
    get_scheduler,
    register_scheduler,
    schedule_kernel,
    scheduler_names,
)
from .sim import SimulationResult, simulate_schedule
from .specs import (
    OverlaySpec,
    SimSpec,
    SweepSpec,
    TuneCandidate,
    TuneResult,
    TuneSpec,
)
from .api import CompiledHandle, Toolchain, default_toolchain
from .tune import enumerate_candidates, tune

__all__ = [
    "__version__",
    "ReproError",
    "DFG",
    "DFGBuilder",
    "OpCode",
    "trace_kernel",
    "parse_c_kernel",
    "get_kernel",
    "all_benchmarks",
    "kernel_names",
    "LinearOverlay",
    "FU_VARIANTS",
    "get_variant",
    "OverlaySchedule",
    "schedule_kernel",
    "SchedulerStrategy",
    "register_scheduler",
    "get_scheduler",
    "scheduler_names",
    "analytic_ii",
    "OverlayProgram",
    "generate_program",
    "ConfigurationImage",
    "build_configuration_image",
    "SimulationResult",
    "simulate_schedule",
    "PerformanceResult",
    "PerformanceModel",
    "ModelPrediction",
    "register_model",
    "get_model",
    "model_names",
    "OverlaySpec",
    "SimSpec",
    "SweepSpec",
    "TuneSpec",
    "TuneCandidate",
    "TuneResult",
    "tune",
    "enumerate_candidates",
    "Toolchain",
    "CompiledHandle",
    "default_toolchain",
    "FastSimulator",
    "ScheduleCache",
    "default_cache",
    "SweepPoint",
    "SweepResult",
    "build_grid",
    "run_sweep",
]
