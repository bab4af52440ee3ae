"""Typed, frozen spec objects — the only way knobs travel between layers.

A new knob lands in exactly one spec class plus its consumer:

* :class:`OverlaySpec` — *which overlay*: FU variant, depth policy (explicit
  or auto-sized), fixed-depth flag, FIFO depth;
* :class:`SimSpec` — *how to simulate*: engine, stream length, seed,
  tracing, verification;
* :class:`SweepSpec` — *what grid to run*: kernels x overlay specs, one
  shared :class:`SimSpec`, worker count;
* :class:`TuneSpec` — *what to auto-tune*: one kernel, the candidate axes
  (variants x depths x fifo_depths x schedulers), the performance model
  that triages them, the objective and the simulation budget.  The tuner
  returns a :class:`TuneResult` holding ranked :class:`TuneCandidate` rows.

All of them are frozen (hashable, usable as cache keys) :class:`Record`
subclasses, so their JSON form is derived from their fields and
``to_json`` / ``from_json`` are exact inverses: a spec can be logged, stored
next to sweep results, or shipped to a worker process verbatim.  The
verifier's reports and the sweep fault plans are records too.  Every entry
point — :class:`repro.api.Toolchain`, the sweep runner, the service and
the CLI — builds or accepts these objects instead of re-declaring kwargs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, TypeVar

from .errors import ConfigurationError
from .overlay.architecture import DEFAULT_FIXED_DEPTH, LinearOverlay
from .overlay.fu import get_variant

#: Simulation engines understood by :func:`repro.sim.overlay.simulate_schedule`.
ENGINES = ("cycle", "fast", "batched")

#: Objectives the auto-tuner can minimise: initiation interval, negated
#: throughput, or pipeline latency.
OBJECTIVES = ("ii", "gops", "latency")

#: Default per-point retry budget of the sweep runner: retries *after* the
#: first attempt, consumed only by faults (worker death, an exception out
#: of the point function, a wall-clock timeout).
DEFAULT_RETRIES = 2

R = TypeVar("R", bound="Record")

#: Field types that ``Record.to_dict`` copies as they are.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def checked_fields(cls: Any, data: Mapping[str, Any]) -> Mapping[str, Any]:
    """``data`` as constructor keywords of ``cls``, rejecting unknown keys so
    a typo in stored JSON fails loudly."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return data


def _plain(value: Any) -> Any:
    """The JSON form of one non-scalar field value."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    return value


class Record:
    """Base of the frozen dataclasses that travel as JSON.

    ``to_dict`` maps the fields in declaration order: a nested record
    becomes its dict, a tuple a list and an enum its value.  ``from_dict``
    rejects unknown keys and hands the rest to the constructor, whose
    ``__post_init__`` coerces nested values back (see :meth:`coerce`).

    ``to_dict`` reads the instance ``__dict__``, which is several times
    cheaper than :func:`dataclasses.fields` (the result store calls it
    twice for every row it writes, and twice for every point a process
    keys for the first time), so a record keeps nothing but its fields
    there: no ``cached_property`` and no ``slots``.
    """

    def to_dict(self) -> Dict[str, Any]:
        data = self.__dict__.copy()
        for name, value in data.items():
            if type(value) not in _SCALARS:
                data[name] = _plain(value)
        return data

    @classmethod
    def from_dict(cls: Type[R], data: Mapping[str, Any]) -> R:
        build: Callable[..., R] = cls
        return build(**checked_fields(cls, data))

    @classmethod
    def coerce(cls: Type[R], value: Any) -> R:
        """``value`` if it is already a ``cls``, else ``cls.from_dict(value)``."""
        return value if isinstance(value, cls) else cls.from_dict(value)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls: Type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))


def _variant_name(variant) -> str:
    """Canonical variant name (accepts a name, alias or FUVariant instance)."""
    return get_variant(variant).name


def _check_int(value: Any, minimum: Optional[int], what: str) -> None:
    """Reject anything but an integer (``bool`` included), and one below
    ``minimum`` unless that is ``None``."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{what} must be an integer{bound}, got {value!r}")


def _check_bool(value: Any, what: str) -> None:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{what} must be true or false, got {value!r}")


def _check_runner(spec: Any) -> None:
    """Check the runner fields :class:`SweepSpec` and :class:`TuneSpec` share."""
    if spec.jobs is not None:
        _check_int(spec.jobs, 1, "jobs")
    if spec.store_dir is not None and not isinstance(spec.store_dir, str):
        raise ConfigurationError(f"store_dir must be a path or None, got {spec.store_dir!r}")
    _check_bool(spec.resume, "resume")


def _strategy_axis(schedulers: Any) -> Optional[Tuple[str, ...]]:
    """A scheduler axis as a tuple of registered strategy names, or ``None``."""
    if schedulers is None:
        return None
    names = tuple(schedulers)
    if not names:
        raise ConfigurationError(
            "schedulers must name at least one strategy (or be None)"
        )
    from .schedule.registry import get_scheduler

    for name in names:
        get_scheduler(name)  # unknown strategies fail at spec time
    return names


def _sim_or_default(sim: Any) -> "SimSpec":
    """``sim`` as a :class:`SimSpec`; ``None`` is the sweep default."""
    return SimSpec(engine="fast") if sim is None else SimSpec.coerce(sim)


@dataclass(frozen=True)
class OverlaySpec(Record):
    """Which overlay to build for a kernel.

    Attributes
    ----------
    variant:
        Canonical FU-variant name (``"baseline"``, ``"v1"`` ... ``"v5"``).
        The constructor also accepts aliases and ``FUVariant`` instances and
        canonicalises them.
    depth:
        Overlay depth, or ``None`` for the paper's auto-sizing policy:
        critical-path depth for the non-write-back variants,
        :data:`~repro.overlay.architecture.DEFAULT_FIXED_DEPTH` for the
        write-back (V3-V5) variants.  There is no ``0`` sentinel.
    fixed:
        Fixed-depth flag, or ``None`` to follow the variant's nature
        (write-back variants build fixed-depth overlays, the others
        critical-path-sized ones).
    fifo_depth:
        Entries in each distributed-RAM FIFO channel.
    scheduler:
        Scheduling-strategy name from :mod:`repro.schedule.registry`
        (``"auto"``, ``"linear"``, ``"clustered"``, ``"modulo"``, or a
        user-registered strategy).  The default ``"auto"`` preserves the
        historical policy dispatch bit-identically.
    """

    variant: str = "v1"
    depth: Optional[int] = None
    fixed: Optional[bool] = None
    fifo_depth: int = 32
    scheduler: str = "auto"

    def __post_init__(self) -> None:
        fu = get_variant(self.variant)
        object.__setattr__(self, "variant", fu.name)
        # Imported lazily: the strategy registry lives with the schedulers.
        from .schedule.registry import get_scheduler

        get_scheduler(self.scheduler)  # unknown names fail loudly here
        if self.depth is not None:
            if not isinstance(self.depth, int) or isinstance(self.depth, bool):
                raise ConfigurationError(
                    f"overlay depth must be an integer or None, got {self.depth!r}"
                )
            if self.depth < 1:
                raise ConfigurationError(
                    "overlay depth must be at least 1 (use depth=None for "
                    "auto sizing; the legacy 0 sentinel is gone)"
                )
        if self.fixed is not None:
            _check_bool(self.fixed, "fixed")
        if self.fixed is True and not fu.supports_fixed_depth:
            raise ConfigurationError(
                f"FU variant {fu.paper_label} has no write-back path and "
                "cannot implement a fixed-depth overlay (only V3-V5 can)"
            )
        _check_int(self.fifo_depth, None, "FIFO depth")
        if self.fifo_depth < 2:
            raise ConfigurationError("FIFO depth must be at least 2")

    # ------------------------------------------------------------------
    @property
    def is_fixed(self) -> bool:
        """The resolved fixed-depth flag (``fixed=None`` follows the variant)."""
        if self.fixed is not None:
            return self.fixed
        return get_variant(self.variant).write_back

    def build_overlay(self, dfg=None) -> LinearOverlay:
        """Materialise the :class:`LinearOverlay` this spec describes.

        ``dfg`` is only needed for the critical-path auto-sizing policy
        (``depth=None`` on a non-write-back variant).
        """
        fu = get_variant(self.variant)
        if self.is_fixed:
            depth = self.depth if self.depth is not None else DEFAULT_FIXED_DEPTH
            return LinearOverlay.fixed(fu, depth, fifo_depth=self.fifo_depth)
        if self.depth is not None:
            return LinearOverlay(
                variant=fu, depth=self.depth, fifo_depth=self.fifo_depth
            )
        if dfg is None:
            raise ConfigurationError(
                f"overlay spec {self!r} sizes the overlay to the kernel's "
                "critical path; pass the kernel DFG to build_overlay()"
            )
        return LinearOverlay.for_kernel(fu, dfg, fifo_depth=self.fifo_depth)

    def resolve(self, dfg=None) -> "OverlaySpec":
        """A fully concrete copy (depth and fixed filled in) for one kernel."""
        overlay = self.build_overlay(dfg)
        return OverlaySpec(
            variant=self.variant,
            depth=overlay.depth,
            fixed=overlay.fixed_depth,
            fifo_depth=self.fifo_depth,
            scheduler=self.scheduler,
        )

    def with_scheduler(self, scheduler: str) -> "OverlaySpec":
        """A copy of this spec selecting a different scheduling strategy."""
        return replace(self, scheduler=scheduler)


@dataclass(frozen=True)
class SimSpec(Record):
    """How to simulate a compiled kernel.

    Attributes
    ----------
    engine:
        ``"cycle"`` (the cycle-accurate golden reference), ``"fast"`` (the
        event-driven engine, identical results) or ``"batched"`` (the fast
        engine whose value plane runs the compiled configuration image on
        numpy once per stream, identical results on correctly encoded
        artifacts, and a check that catches codegen faults; without the
        optional numpy ``[batch]`` extra it runs on the scalar value plane).
    num_blocks:
        Data blocks in the generated input stream (when the caller does not
        provide explicit blocks).
    seed:
        Seed of the deterministic random input stream.
    trace:
        Record a per-cycle Table II style trace (forces the cycle engine).
    verify:
        Check every output block against the golden reference model.
    """

    engine: str = "cycle"
    num_blocks: int = 12
    seed: int = 0
    trace: bool = False
    verify: bool = True

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown simulation engine {self.engine!r}; "
                f"available: {', '.join(ENGINES)}"
            )
        _check_int(self.num_blocks, None, "num_blocks")
        if self.num_blocks < 0:
            raise ConfigurationError("num_blocks must be non-negative")
        _check_int(self.seed, None, "seed")
        _check_bool(self.trace, "trace")
        _check_bool(self.verify, "verify")


@dataclass(frozen=True)
class SweepSpec(Record):
    """A (kernels x overlays [x schedulers]) grid with one shared sim policy.

    The grid is the cross product ``kernels x overlays`` in that order
    (kernel-major), the order :func:`repro.engine.sweep.build_grid` uses.
    ``sim=None`` resolves to the sweep default, ``SimSpec(engine="fast")``.

    ``schedulers`` adds a third axis: when given, every overlay spec is
    re-keyed with each named scheduling strategy (overlay-major, scheduler
    innermost), so one spec can compare e.g. ``clustered`` against
    ``modulo`` across the whole kernel library.  ``schedulers=None`` (the
    default) keeps each overlay spec's own ``scheduler`` field.

    ``jobs`` is the number of worker lanes, one process each, that run the
    grid's points; ``None`` means the CPUs this process may run on (its
    affinity mask, where the platform has one), and ``1`` runs serially in
    this process.

    Robustness knobs (consumed by the fault-tolerant runner of
    :func:`repro.engine.sweep.run_sweep`):

    * ``retries`` — per-point retry budget for faulted attempts (worker
      death, raised exception, timeout); past it the point is reported as a
      quarantined error row instead of aborting the grid.  ``0`` disables
      retrying (faults quarantine immediately);
    * ``timeout_s`` — per-point wall-clock limit; a stalled worker is
      killed and the point charged one retry.  ``None`` means unlimited;
    * ``store_dir`` — root of a persistent
      :class:`~repro.engine.store.ResultStore`: computed rows persist
      atomically as they settle and (with ``resume``, the default) points
      whose content key already has an entry are served from disk, so
      re-running a grid only simulates what is new and a killed run
      resumes where it died.  ``resume=False`` remeasures everything while
      still persisting fresh rows.
    """

    kernels: Tuple[str, ...]
    overlays: Tuple[OverlaySpec, ...]
    sim: Optional[SimSpec] = None
    jobs: Optional[int] = None
    schedulers: Optional[Tuple[str, ...]] = None
    retries: int = DEFAULT_RETRIES
    timeout_s: Optional[float] = None
    store_dir: Optional[str] = None
    resume: bool = True

    def __post_init__(self) -> None:
        kernels = tuple(self.kernels)
        if not kernels:
            raise ConfigurationError("a sweep spec needs at least one kernel")
        overlays = tuple(OverlaySpec.coerce(spec) for spec in self.overlays)
        if not overlays:
            raise ConfigurationError("a sweep spec needs at least one overlay spec")
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "overlays", overlays)
        object.__setattr__(self, "sim", _sim_or_default(self.sim))
        object.__setattr__(self, "schedulers", _strategy_axis(self.schedulers))
        _check_runner(self)
        _check_int(self.retries, 0, "retries")
        timeout = self.timeout_s
        if timeout is not None and (type(timeout) not in (int, float) or not timeout > 0):
            raise ConfigurationError(
                f"timeout_s must be a positive number (or None for unlimited), got {timeout!r}"
            )

    # ------------------------------------------------------------------
    def grid_overlays(self) -> Tuple[OverlaySpec, ...]:
        """The overlay axis with the scheduler axis expanded into it."""
        if self.schedulers is None:
            return self.overlays
        return tuple(
            overlay.with_scheduler(scheduler)
            for overlay in self.overlays
            for scheduler in self.schedulers
        )

    def __len__(self) -> int:
        return len(self.kernels) * len(self.grid_overlays())


@dataclass(frozen=True)
class TuneSpec(Record):
    """What the auto-tuner should search, with which model and budget.

    The candidate set is the cross product ``variants x depths x
    fifo_depths x schedulers`` for one kernel.  Every candidate is ranked
    analytically by the named performance model (microseconds per config)
    and only the top-``budget`` frontier is simulated through the sweep
    runner — riding its retry/quarantine machinery and, when ``store_dir``
    is set, its persistent :class:`~repro.engine.store.ResultStore` (so a
    repeated or enlarged tune only simulates configs it has never
    measured, and the store's accumulated rows feed the ``calibrated``
    model).

    Attributes
    ----------
    kernel:
        Library kernel name to tune.
    variants:
        FU-variant axis (canonicalised; defaults to V1-V5).
    depths:
        Overlay-depth axis; ``None`` entries mean the auto-sizing policy.
    fifo_depths:
        FIFO-depth axis.
    schedulers:
        Scheduling-strategy axis, or ``None`` for every registered
        strategy except ``auto`` (which canonicalises to one of the
        others and would only duplicate candidates).
    model:
        Performance-model name from :mod:`repro.metrics.models`.
    objective:
        One of :data:`OBJECTIVES` — what the tuner minimises (``"gops"``
        maximises throughput).
    budget:
        Maximum number of candidates to *simulate*; everything else is
        ranked analytically only.
    sim:
        Shared simulation policy (``None`` resolves to the sweep default,
        ``SimSpec(engine="fast")``).
    jobs:
        Worker lanes for the frontier simulation, one process each, as on
        :class:`SweepSpec` (``None``: the CPUs this process may run on).
    store_dir / resume:
        Persistent result store for the frontier rows, exactly as on
        :class:`SweepSpec`.
    """

    kernel: str = ""
    variants: Tuple[str, ...] = ("v1", "v2", "v3", "v4", "v5")
    depths: Tuple[Optional[int], ...] = (None,)
    fifo_depths: Tuple[int, ...] = (32,)
    schedulers: Optional[Tuple[str, ...]] = None
    model: str = "analytic"
    objective: str = "ii"
    budget: int = 8
    sim: Optional[SimSpec] = None
    jobs: Optional[int] = None
    store_dir: Optional[str] = None
    resume: bool = True

    def __post_init__(self) -> None:
        if not self.kernel or not isinstance(self.kernel, str):
            raise ConfigurationError("a tune spec needs a kernel name")
        variants = tuple(_variant_name(v) for v in self.variants)
        if not variants:
            raise ConfigurationError("a tune spec needs at least one variant")
        depths = tuple(self.depths)
        if not depths:
            raise ConfigurationError(
                "a tune spec needs at least one depth (None = auto sizing)"
            )
        for depth in depths:
            if depth is not None:
                _check_int(depth, 1, "tune depths")
        fifo_depths = tuple(self.fifo_depths)
        if not fifo_depths:
            raise ConfigurationError("a tune spec needs at least one FIFO depth")
        for fifo in fifo_depths:
            _check_int(fifo, 2, "tune FIFO depths")
        object.__setattr__(self, "variants", variants)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "fifo_depths", fifo_depths)
        object.__setattr__(self, "schedulers", _strategy_axis(self.schedulers))
        # Imported lazily: the model registry lives with the metrics layer.
        from .metrics.models import get_model

        get_model(self.model)  # unknown models fail at spec time
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown tuning objective {self.objective!r}; "
                f"available: {', '.join(OBJECTIVES)}"
            )
        _check_int(self.budget, 1, "budget")
        object.__setattr__(self, "sim", _sim_or_default(self.sim))
        _check_runner(self)


@dataclass(frozen=True)
class TuneCandidate(Record):
    """One tuner candidate: predicted metrics, and measured ones if simulated.

    ``rank`` is the candidate's 0-based position in the model's triage
    ordering (infeasible candidates rank after every feasible one).
    ``ii_error`` is the signed relative model error
    ``(measured_ii - predicted_ii) / measured_ii`` — 0 means exact,
    positive means the model (soundly) under-predicted.  Candidates carry
    no timing fields on purpose: a :class:`TuneResult` is a pure function
    of the spec and the measured rows, so identical tunes compare equal.
    """

    overlay: OverlaySpec
    rank: int
    predicted_ii: Optional[float] = None
    predicted_cycles: Optional[float] = None
    predicted_latency_ns: Optional[float] = None
    predicted_gops: Optional[float] = None
    fmax_mhz: Optional[float] = None
    simulated: bool = False
    measured_ii: Optional[float] = None
    measured_gops: Optional[float] = None
    measured_cycles: Optional[int] = None
    measured_latency_cycles: Optional[int] = None
    ii_error: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "overlay", OverlaySpec.coerce(self.overlay))
        _check_int(self.rank, 0, "candidate rank")

    @property
    def feasible(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class TuneResult(Record):
    """The tuner's verdict: triage-ranked candidates and the chosen one.

    ``candidates`` is ordered by model rank (the first ``min(budget,
    feasible)`` feasible rows are the simulated frontier); ``best_index``
    points at the winner by *measured* objective among simulated rows
    (``None`` when nothing could be measured).  JSON-round-trippable like
    every spec, so a tune can be logged or shipped and reproduced.
    """

    spec: TuneSpec
    candidates: Tuple[TuneCandidate, ...]
    best_index: Optional[int] = None

    def __post_init__(self) -> None:
        candidates = tuple(TuneCandidate.coerce(c) for c in self.candidates)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "spec", TuneSpec.coerce(self.spec))
        if self.best_index is not None:
            if (
                not isinstance(self.best_index, int)
                or isinstance(self.best_index, bool)
                or not 0 <= self.best_index < len(candidates)
            ):
                raise ConfigurationError(
                    f"best_index {self.best_index!r} is not a valid index into "
                    f"{len(candidates)} candidates"
                )

    # ------------------------------------------------------------------
    @property
    def best(self) -> Optional[TuneCandidate]:
        """The winning candidate (``None`` when nothing was measurable)."""
        if self.best_index is None:
            return None
        return self.candidates[self.best_index]

    @property
    def num_feasible(self) -> int:
        return sum(1 for c in self.candidates if c.feasible)

    @property
    def num_simulated(self) -> int:
        return sum(1 for c in self.candidates if c.simulated)

    def __len__(self) -> int:
        return len(self.candidates)


# ---------------------------------------------------------------------------
# wire envelopes — the service protocol's tagged spec round trip
# ---------------------------------------------------------------------------
#: Wire tag -> spec class.  The overlay service embeds spec objects in JSON
#: requests/responses as ``{"type": tag, "data": {...}}`` so a payload is
#: self-describing; both directions go through the exact ``to_dict`` /
#: ``from_dict`` round trip the specs already guarantee.
WIRE_SPEC_TYPES: Dict[str, type] = {
    "overlay": OverlaySpec,
    "sim": SimSpec,
    "sweep": SweepSpec,
    "tune": TuneSpec,
}


def spec_to_wire(spec: object) -> Dict[str, Any]:
    """The tagged wire envelope ``{"type": ..., "data": ...}`` of a spec."""
    for tag, cls in WIRE_SPEC_TYPES.items():
        if type(spec) is cls:
            return {"type": tag, "data": spec.to_dict()}  # type: ignore[attr-defined]
    raise ConfigurationError(
        f"{type(spec).__name__} is not a wire-serialisable spec; "
        f"supported: {', '.join(sorted(WIRE_SPEC_TYPES))}"
    )


def spec_from_wire(payload: Dict[str, Any]) -> object:
    """Rebuild a spec object from its tagged wire envelope.

    Raises :class:`~repro.errors.ConfigurationError` on a malformed
    envelope, an unknown tag, or invalid spec fields — the service maps all
    three onto its stable ``E_PARAMS`` error code.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"a wire spec must be an object, got {type(payload).__name__}"
        )
    tag = payload.get("type")
    cls = WIRE_SPEC_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ConfigurationError(
            f"unknown wire spec type {tag!r}; "
            f"supported: {', '.join(sorted(WIRE_SPEC_TYPES))}"
        )
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"wire spec {tag!r} needs an object 'data' field, "
            f"got {type(data).__name__}"
        )
    return cls.from_dict(data)

