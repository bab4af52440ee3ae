"""Pluggable analytic performance models — the auto-tuner's triage layer.

The analytic evaluation path (resource estimate, II and latency models) has
always been *one* hard-wired computation inside
:func:`repro.metrics.performance.analytic_performance`.  This module makes
it a pluggable model family instead, registered like the scheduling
strategies of :mod:`repro.schedule.registry`:

* a :class:`PerformanceModel` ABC — ``predict(dfg, overlay, schedule)``
  returns a :class:`ModelPrediction` (predicted II, total cycles, latency,
  fmax, throughput) without ever running a simulator;
* a process-wide **registry** (:data:`MODELS`, a
  :class:`repro.registry.Registry`) mapping model names to factories
  (:func:`register_model` / :func:`get_model`, decorator form included);
* the built-in models:

  ============ ==========================================================
  name         prediction policy
  ============ ==========================================================
  analytic     the paper's closed-form models: Eq. 1/2 II, the analytic
               latency bound, steady-state cycle extrapolation
  warmup-aware pipeline-fill-aware total cycles, carrying the analytic
               warm-up bound ``W(depth, fifo_depth, II)`` of PR 3 as the
               certified uncertainty window
  calibrated   the analytic II corrected per (kernel, scheduler) by the
               smallest measured/analytic ratio seen in stored sweep
               rows (conservative, so fitted predictions stay lower
               bounds on every row they were fitted from)
  ============ ==========================================================

Every built-in model's predicted II is a **true lower bound** on the II the
simulation engines measure — the property that makes analytic triage a
sound pre-filter: a config whose *predicted* II already loses cannot win
once measured.  ``tests/test_model_fidelity.py`` pins this differentially
against both engines over the whole kernel x variant x scheduler grid.

Model selection travels by name inside :class:`repro.specs.TuneSpec`, keys
the prediction memo of :meth:`repro.api.Toolchain.predict` (via
:attr:`PerformanceModel.cache_token`, which folds in fitted state), and is
selectable from the CLI (``repro-overlay tune --model ...``).
"""

from __future__ import annotations

import abc
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from ..dfg.graph import DFG
from ..errors import ConfigurationError
from ..overlay.architecture import LinearOverlay
from ..overlay.resources import estimate_resources
from ..registry import Registry, describe
from ..schedule import analytic_ii
from ..schedule.types import OverlaySchedule
from ..specs import OBJECTIVES, SimSpec
from .performance import analytic_latency_cycles, latency_ns, throughput_gops


@dataclass(frozen=True)
class ModelPrediction:
    """One model's performance estimate for one (kernel, overlay, schedule).

    ``ii`` is the quantity triage ranks by: for every built-in model it is a
    certified lower bound on the II either simulation engine would measure.
    ``cycles`` estimates the total run length for ``num_blocks`` blocks;
    ``warmup_bound_cycles`` (non-zero only for warm-up-aware models) is the
    certified window by which a measured run may exceed it.
    """

    model: str
    kernel: str
    variant: str
    overlay_name: str
    overlay_depth: int
    scheduler: str
    num_blocks: int
    ii: float
    latency_cycles: float
    latency_ns: float
    cycles: float
    warmup_bound_cycles: int
    fmax_mhz: float
    throughput_gops: float
    dsp_blocks: int
    logic_slices: int

    def objective_value(self, objective: str) -> float:
        """The minimised score this prediction assigns to one objective."""
        if objective == "ii":
            return self.ii
        if objective == "gops":
            return -self.throughput_gops
        if objective == "latency":
            return self.latency_ns
        raise ConfigurationError(
            f"unknown tuning objective {objective!r}; "
            f"available: {', '.join(OBJECTIVES)}"
        )


class PerformanceModel(abc.ABC):
    """A performance model: estimate a schedule's metrics without simulating.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`predict`.  Models that learn from measurements additionally
    override :meth:`fit` and :attr:`cache_token` (so fitted and unfitted
    instances never share memoised predictions).
    """

    #: Registry key; subclasses must override.
    name: str = ""

    def fit(self, results: Iterable) -> "PerformanceModel":
        """Ingest measured sweep rows; a no-op for closed-form models.

        ``results`` is an iterable that can be read once, such as the lazy
        :meth:`repro.engine.store.ResultStore.results`: a model that learns
        iterates it in a single pass, and a closed-form model leaves it
        untouched, so a store is read only for models that use its rows.
        Returns ``self`` so fitting chains: ``get_model("calibrated").fit(rows)``.
        """
        return self

    @property
    def cache_token(self) -> str:
        """What identifies this model's predictions in caches.

        The plain model name for stateless models; models with fitted state
        must fold that state in (see :class:`CalibratedModel`), otherwise a
        prediction memoised before ``fit()`` would be served after it.
        """
        return self.name

    @abc.abstractmethod
    def predict(
        self,
        dfg: DFG,
        overlay: LinearOverlay,
        schedule: OverlaySchedule,
        sim: Optional[SimSpec] = None,
        scheduler: Optional[str] = None,
    ) -> ModelPrediction:
        """Predict the performance of one scheduled kernel.

        ``sim`` supplies the stream length the cycle estimate is for
        (default: the sweep default of 12 blocks); ``scheduler`` names the
        *strategy* that produced the schedule (default: the schedule's own
        algorithm label) — calibrated models key corrections by it.
        """


class AnalyticModel(PerformanceModel):
    """The paper's closed-form models (Eq. 1/2 II, analytic latency).

    Total cycles are the pure steady-state extrapolation
    ``ceil(blocks / lanes) * II_lane`` — a throughput floor that ignores
    pipeline fill and FIFO ramps (see :class:`WarmupAwareModel` for the
    ramp-aware estimate).  Deliberately does **no** per-prediction graph
    traversal (no ASAP relevelling, no kernel-depth recomputation), so
    triaging a config costs microseconds against milliseconds to simulate.
    """

    name = "analytic"

    def _ii(
        self, dfg: DFG, schedule: OverlaySchedule, scheduler: str
    ) -> float:
        """The predicted II (hook for calibrated corrections)."""
        return analytic_ii(schedule)

    def _cycles(
        self, schedule: OverlaySchedule, ii: float, num_blocks: int
    ) -> Tuple[float, int]:
        """(total-cycle estimate, certified warm-up window) for one run."""
        lanes = schedule.variant.lanes
        starts = math.ceil(num_blocks / lanes)
        return starts * ii * lanes, 0

    def predict(
        self,
        dfg: DFG,
        overlay: LinearOverlay,
        schedule: OverlaySchedule,
        sim: Optional[SimSpec] = None,
        scheduler: Optional[str] = None,
    ) -> ModelPrediction:
        strategy = scheduler if scheduler is not None else schedule.scheduler
        num_blocks = sim.num_blocks if sim is not None else 12
        resources = estimate_resources(overlay)
        ii = self._ii(dfg, schedule, strategy)
        latency_cycles = analytic_latency_cycles(schedule)
        cycles, warmup = self._cycles(schedule, ii, num_blocks)
        return ModelPrediction(
            model=self.name,
            kernel=dfg.name,
            variant=overlay.variant.name,
            overlay_name=overlay.name,
            overlay_depth=overlay.depth,
            scheduler=strategy,
            num_blocks=num_blocks,
            ii=ii,
            latency_cycles=latency_cycles,
            latency_ns=latency_ns(latency_cycles, resources.fmax_mhz),
            cycles=cycles,
            warmup_bound_cycles=warmup,
            fmax_mhz=resources.fmax_mhz,
            throughput_gops=throughput_gops(
                dfg.num_operations, ii, resources.fmax_mhz
            ),
            dsp_blocks=resources.dsp_blocks,
            logic_slices=resources.logic_slices,
        )


class WarmupAwareModel(AnalyticModel):
    """Analytic model with pipeline-fill-aware cycles and a certified window.

    Total cycles are ``latency + (starts - 1) * II_lane`` (the first block
    pays the full traversal latency, every further start the II), and
    :attr:`ModelPrediction.warmup_bound_cycles` carries PR 3's analytic
    warm-up bound ``W(depth, fifo_depth, II)``: a measured run can exceed
    the estimate by at most that window (FIFO fill/drain ramps), which the
    differential suite asserts on every grid point.
    """

    name = "warmup-aware"

    def _cycles(
        self, schedule: OverlaySchedule, ii: float, num_blocks: int
    ) -> Tuple[float, int]:
        from ..engine.fastsim import steady_state_warmup_bound

        lanes = schedule.variant.lanes
        starts = math.ceil(num_blocks / lanes)
        cycles = analytic_latency_cycles(schedule) + max(0, starts - 1) * ii * lanes
        return cycles, steady_state_warmup_bound(schedule)


class CalibratedModel(AnalyticModel):
    """Analytic II corrected by per-(kernel, scheduler) measured ratios.

    :meth:`fit` ingests measured sweep rows (live
    :class:`~repro.engine.sweep.SweepResult` objects or the dict rows a
    :class:`~repro.engine.store.ResultStore` persists) and keeps, per
    (kernel, scheduler-strategy) group, the **smallest** measured/analytic
    II ratio seen.  Using the group minimum keeps the correction
    conservative: on every row the model was fitted from, the corrected
    prediction is still a true lower bound on the measured II.  Pairs with
    no fitted rows fall back to the uncorrected analytic model.
    """

    name = "calibrated"

    def __init__(self) -> None:
        self._ratios: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def fit(self, results: Iterable) -> "CalibratedModel":
        for row in results:
            if isinstance(row, dict):
                get = row.get
            else:
                get = lambda field, _row=row: getattr(_row, field, None)  # noqa: E731
            if get("error") or get("quarantined"):
                continue
            measured, analytic = get("measured_ii"), get("analytic_ii")
            if not measured or not analytic or analytic <= 0:
                continue
            key = (str(get("kernel")), str(get("scheduler")))
            ratio = float(measured) / float(analytic)
            if key not in self._ratios or ratio < self._ratios[key]:
                self._ratios[key] = ratio
        return self

    # ------------------------------------------------------------------
    @property
    def cache_token(self) -> str:
        if not self._ratios:
            return self.name
        payload = json.dumps(sorted(self._ratios.items()), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        return f"{self.name}:{digest}"

    def _ii(
        self, dfg: DFG, schedule: OverlaySchedule, scheduler: str
    ) -> float:
        base = analytic_ii(schedule)
        return base * self._ratios.get((dfg.name, scheduler), 1.0)


# ---------------------------------------------------------------------------
# the model registry
# ---------------------------------------------------------------------------
#: A registered factory: any zero-argument callable returning a model
#: instance (a :class:`PerformanceModel` subclass itself qualifies).
ModelFactory = Callable[[], PerformanceModel]


@dataclass(frozen=True)
class ModelEntry:
    """A registered performance model.

    Attributes
    ----------
    name:
        Registry key (what ``TuneSpec.model`` and ``--model`` select).
    factory:
        Zero-argument callable producing a fresh model instance.
    description:
        One-line summary (CLI listings).
    """

    name: str
    factory: ModelFactory
    description: str = ""

    def as_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "default": self.name == DEFAULT_MODEL,
        }


#: The model every tuning entry point defaults to.
DEFAULT_MODEL = "analytic"

#: Every registered model, built-ins first.
MODELS: Registry[ModelEntry] = Registry("performance model")


def register_model(
    name: str,
    factory: Optional[ModelFactory] = None,
    *,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Register a performance-model factory under ``name``.

    Usable directly (``register_model("mine", MyModel)``) or as a
    decorator::

        @register_model("mine", description="...")
        class MyModel(PerformanceModel):
            ...

    ``description`` defaults to the first line of the factory's docstring.

    Raises
    ------
    ConfigurationError
        If ``name`` is already registered and ``replace`` is not set, or
        the name is empty.
    """

    def _register(f: ModelFactory) -> ModelFactory:
        entry = ModelEntry(name=name, factory=f, description=describe(f, description))
        MODELS.add(name, entry, replace)
        return f

    if factory is None:
        return _register
    return _register(factory)


def get_model(name: str) -> PerformanceModel:
    """A **fresh** instance of the named model.

    Fresh per call so fitted state never leaks between sessions; unknown
    names fail loudly with the registered alternatives.
    """
    model = MODELS.get(name).factory()
    if not isinstance(model, PerformanceModel):
        raise ConfigurationError(
            f"performance-model factory {name!r} returned "
            f"{type(model).__name__}, not a PerformanceModel"
        )
    return model


def resolve_model(model: Union[str, PerformanceModel]) -> PerformanceModel:
    """A model instance from either a registry name or an instance."""
    if isinstance(model, PerformanceModel):
        return model
    return get_model(model)


unregister_model = MODELS.remove
model_names = MODELS.names
model_entries = MODELS.entries


def _register_builtins() -> None:
    register_model(
        "analytic",
        AnalyticModel,
        description=(
            "closed-form Eq. 1/2 II + analytic latency; steady-state cycle "
            "extrapolation (the default)"
        ),
    )
    register_model(
        "warmup-aware",
        WarmupAwareModel,
        description=(
            "analytic II with pipeline-fill-aware cycles and the certified "
            "W(depth, fifo_depth, II) warm-up window"
        ),
    )
    register_model(
        "calibrated",
        CalibratedModel,
        description=(
            "analytic II corrected per (kernel, scheduler) from stored "
            "sweep measurements (conservative group-minimum ratios)"
        ),
    )


_register_builtins()
MODELS.seal()
