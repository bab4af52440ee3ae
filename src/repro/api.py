"""The unified :class:`Toolchain` session API.

The paper's flow is compile-once / load / execute-many; this module is the
one front door to it.  A :class:`Toolchain` owns a compiled-schedule cache
(constructor-injected; the process-wide :func:`~repro.engine.cache.
default_cache` is only the default argument) and exposes the whole tool flow
through typed spec objects (:mod:`repro.specs`):

>>> from repro import Toolchain, OverlaySpec, SimSpec
>>> tc = Toolchain()
>>> handle = tc.compile("gradient", OverlaySpec("v1"))
>>> tc.evaluate(handle).ii
6.0
>>> tc.simulate(handle, SimSpec(num_blocks=6)).matches_reference
True

The runtime (``OverlayRuntime.register``), the service and the CLI compile
and evaluate through this facade; knobs travel exclusively inside
:class:`~repro.specs.OverlaySpec` / :class:`~repro.specs.SimSpec` /
:class:`~repro.specs.SweepSpec` objects.

Two :class:`Toolchain` instances with separately injected caches share no
compiled state: handles, memoised analytic evaluations and compiled
artifacts are all scoped to the session's cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from .dfg.graph import DFG
from .dfg.serialize import dfg_fingerprint
from .engine.cache import CacheKey, ScheduleCache, default_cache
from .errors import CodegenError, ConfigurationError, VerificationError
from .frontend.cache import default_frontend_cache
from .kernels.library import get_kernel
from .metrics.models import ModelPrediction, PerformanceModel, resolve_model
from .metrics.performance import PerformanceResult, analytic_performance
from .overlay.architecture import LinearOverlay
from .program.binary import ConfigurationImage
from .program.codegen import OverlayProgram
from .schedule.types import OverlaySchedule
from .sim.overlay import SimulationResult, simulate_schedule_with
from .specs import OverlaySpec, SimSpec, SweepSpec


@dataclass
class CompiledHandle:
    """A spec-keyed compiled kernel, handed out by :meth:`Toolchain.compile`.

    ``program`` and ``configuration`` are ``None`` only for schedule-only
    handles (kernels that schedule fine but exceed the variant's register
    file or instruction memory; see ``allow_schedule_only``) — those still
    evaluate analytically and simulate (the simulator runs from the
    schedule), but have no binary to load onto a runtime.
    """

    dfg: DFG
    overlay: LinearOverlay
    spec: OverlaySpec
    schedule: OverlaySchedule
    program: Optional[OverlayProgram]
    configuration: Optional[ConfigurationImage]
    key: CacheKey

    @property
    def schedule_only(self) -> bool:
        return self.program is None

    @property
    def kernel_name(self) -> str:
        return self.dfg.name


class Toolchain:
    """One session of the compile / evaluate / simulate / sweep tool flow.

    Parameters
    ----------
    cache:
        The compiled-schedule cache this session compiles through.  Defaults
        to the process-wide :func:`~repro.engine.cache.default_cache`; inject
        a private :class:`~repro.engine.cache.ScheduleCache` to isolate the
        session's compiled state (two sessions with separate caches share
        nothing).
    """

    def __init__(self, cache: Optional[ScheduleCache] = None):
        self.cache = cache if cache is not None else default_cache()
        #: The session's source index: (kernel name, DFG fingerprint, overlay
        #: spec) or ("source", source hash, name, overlay spec) -> (built
        #: overlay, resolved spec, cache key).  Only *derived sizing* is
        #: memoised here — the compiled artifacts themselves always come from
        #: the injected cache, so its statistics and ``clear()`` stay
        #: truthful.
        self._resolved: "OrderedDict[Tuple, Tuple[LinearOverlay, OverlaySpec, CacheKey]]" = (
            OrderedDict()
        )
        self._analytic: "OrderedDict[CacheKey, PerformanceResult]" = OrderedDict()
        #: (cache key, requested strategy, model cache token, sim spec) ->
        #: ModelPrediction.  The model's *cache token* (not just its name)
        #: is part of the key, so a calibrated model's fitted state never
        #: serves stale predictions.  So is the requested strategy: the
        #: model reads it, and ``auto`` shares its cache key with the
        #: concrete strategy it resolves to.
        self._predictions: "OrderedDict[Tuple, ModelPrediction]" = OrderedDict()
        self._lock = threading.Lock()

    def _recall(self, memo: OrderedDict, key):
        """``memo[key]``, LRU-touched, or None."""
        with self._lock:
            value = memo.get(key)
            if value is not None:
                memo.move_to_end(key)
            return value

    def _remember(self, memo: OrderedDict, key, value):
        """Store ``value`` in ``memo`` (bounded at 4x the cache capacity)."""
        with self._lock:
            memo[key] = value
            memo.move_to_end(key)
            while len(memo) > 4 * self.cache.capacity:
                memo.popitem(last=False)
        return value

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------
    def compile(
        self,
        kernel: Union[str, DFG, None] = None,
        overlay: OverlaySpec = OverlaySpec(),
        *,
        source: Optional[str] = None,
        name: Optional[str] = None,
        allow_schedule_only: bool = False,
        check: bool = False,
    ) -> CompiledHandle:
        """Compile a kernel (library name, DFG, or mini-C ``source``).

        Goes through the session cache, so a warm call is a dictionary
        lookup.  With ``allow_schedule_only=True``, kernels whose codegen
        overflows the register file / instruction memory come back as
        schedule-only handles instead of raising
        :class:`~repro.errors.CodegenError`.  With ``check=True``, the
        compiled artifact is run through the static verification passes
        (:mod:`repro.verify`) and an error diagnostic raises
        :class:`~repro.errors.VerificationError`; artifacts produced by a
        *third-party* scheduler strategy are checked this way on every
        compile regardless (verdicts are cached alongside the artifact, so
        warm compiles re-verify nothing — see ``docs/verify.md``).
        """
        if not isinstance(overlay, OverlaySpec):
            raise ConfigurationError(
                "overlay must be an OverlaySpec (raw variant/depth kwargs "
                "moved into repro.specs.OverlaySpec)"
            )
        if source is not None and kernel is not None:
            raise ConfigurationError("pass either a kernel or source, not both")
        if source is None and kernel is None:
            raise ConfigurationError("provide a kernel (name or DFG) or source=")
        dfg = None
        if source is None:
            dfg = get_kernel(kernel) if isinstance(kernel, str) else kernel
            built, resolved, key = self._resolve(dfg, overlay)
        else:
            from .frontend.lexer import source_hash

            skey = ("source", source_hash(source), name, overlay)
            entry = self._recall(self._resolved, skey)
            if entry is None:
                # Cold: lower once (content-hashed frontend cache) to size
                # the overlay, and remember the resolution.
                dfg = default_frontend_cache().dfg(source, name=name)
                entry = self._remember(self._resolved, skey, self._resolve(dfg, overlay))
            built, resolved, key = entry
        program = configuration = None
        try:
            if dfg is None:
                # Warm source: the memo holds the key, so nothing is lowered
                # or hashed while the cache holds the entry.
                compiled = self.cache.get_or_compile_source(source, built, key, name)
            else:
                compiled = self.cache.get_or_compile_keyed(key, dfg, built)
            schedule = compiled.schedule
            program, configuration = compiled.program, compiled.configuration
        except CodegenError:
            if not allow_schedule_only:
                raise
            if dfg is None:
                dfg = default_frontend_cache().dfg(source, name=name)
            schedule = self.cache.get_schedule(key, dfg, built)
        handle = CompiledHandle(
            # A source request's DFG is the one its schedule was made from.
            dfg=dfg if source is None else schedule.dfg,
            overlay=built,
            spec=resolved,
            schedule=schedule,
            program=program,
            configuration=configuration,
            key=key,
        )
        return self._checked(handle, check)

    def _resolve(
        self, dfg: DFG, spec: OverlaySpec
    ) -> Tuple[LinearOverlay, OverlaySpec, CacheKey]:
        """Built overlay, concrete spec and cache key for (kernel, spec).

        Memoised per (kernel name, DFG fingerprint, spec), so a warm
        :meth:`compile` hashes the DFG once and re-derives nothing (no
        critical-path sizing, no second hash inside the cache lookup).
        """
        fingerprint = dfg_fingerprint(dfg)
        rkey = (dfg.name, fingerprint, spec)
        entry = self._recall(self._resolved, rkey)
        if entry is not None:
            return entry
        built = spec.build_overlay(dfg)
        resolved = OverlaySpec(
            variant=spec.variant,
            depth=built.depth,
            fixed=built.fixed_depth,
            fifo_depth=spec.fifo_depth,
            scheduler=spec.scheduler,
        )
        # The key canonicalises the strategy ("auto" -> the concrete strategy
        # its dispatch selects), so the default shares cache entries with an
        # explicit "linear"/"clustered" compile; the resolved spec keeps the
        # requested name.
        key = CacheKey.for_mapping(dfg, built, spec.scheduler, dfg_hash=fingerprint)
        return self._remember(self._resolved, rkey, (built, resolved, key))

    # ------------------------------------------------------------------
    # verify
    # ------------------------------------------------------------------
    def verify(
        self,
        handle: CompiledHandle,
        *,
        passes: Optional[List[str]] = None,
        use_cache: bool = True,
    ) -> "VerifyReport":
        """Run the static verification passes over a compiled artifact.

        Returns the :class:`~repro.verify.VerifyReport` (never raises on
        diagnostics — callers decide; ``compile(check=True)`` is the raising
        wrapper).  Full-suite verdicts (``passes=None``) are cached on the
        artifact's cache key, so re-verifying a warm artifact is a
        dictionary lookup; pass ``use_cache=False`` to force a re-run, or
        ``passes=[...]`` to run a subset (never cached).
        """
        from .verify import VerifyContext, run_passes

        if not isinstance(handle, CompiledHandle):
            raise ConfigurationError("verify() takes a handle from compile()")
        cacheable = passes is None and use_cache
        if cacheable:
            report = self.cache.get_verdict(handle.key)
            if report is not None:
                return report
        report = run_passes(VerifyContext.from_handle(handle), passes=passes)
        if cacheable:
            self.cache.store_verdict(handle.key, report)
        return report

    def _checked(self, handle: CompiledHandle, check: bool) -> CompiledHandle:
        """Verify a freshly compiled handle when the session must.

        ``check=True`` verifies explicitly; artifacts from third-party
        scheduler strategies (anything :func:`~repro.schedule.registry.
        register_scheduler` added beyond the built-ins) are verified on
        first compile even without ``check`` — the cached verdict makes
        every later compile of the same artifact free.
        """
        from .schedule.registry import is_builtin_scheduler

        if not check and is_builtin_scheduler(handle.key.scheduler):
            return handle
        report = self.verify(handle)
        if not report.ok:
            raise VerificationError(
                f"kernel {handle.kernel_name!r} on "
                f"{handle.spec.variant}/{handle.key.scheduler} failed static "
                f"verification: {report.summary()}",
                report=report,
            )
        return handle

    # ------------------------------------------------------------------
    # evaluate / simulate
    # ------------------------------------------------------------------
    def evaluate(
        self,
        handle: Union[CompiledHandle, str, DFG],
        overlay: Optional[OverlaySpec] = None,
        sim: Optional[SimSpec] = None,
    ) -> PerformanceResult:
        """Analytic performance of a compiled kernel (Fig. 6 quantities).

        The analytic evaluation (resource estimate, ASAP levels / kernel
        depth, II, latency model) is memoised on the spec-keyed compiled
        artifact, so a warm call copies a cached result and does no graph
        work.  Pass ``sim=SimSpec(...)`` to additionally measure II/latency
        in the simulator and verify against the golden reference.

        Accepts a handle from :meth:`compile`, or a kernel plus an
        ``overlay`` spec (compiled on the fly, schedule-only fallback
        included, which is what analytic sweeps over codegen-overflowing
        kernels need).
        """
        if not isinstance(handle, CompiledHandle):
            handle = self.compile(
                handle, overlay or OverlaySpec(), allow_schedule_only=True
            )
        elif overlay is not None:
            raise ConfigurationError(
                "pass an overlay spec only when evaluating a kernel, not a handle"
            )
        proto = self._recall(self._analytic, handle.key)
        if proto is None:
            proto = self._remember(
                self._analytic,
                handle.key,
                analytic_performance(handle.dfg, handle.overlay, handle.schedule),
            )
        result = replace(proto)
        if sim is not None:
            _merge_measured(result, self.simulate(handle, sim))
        return result

    def predict(
        self,
        handle: Union[CompiledHandle, str, DFG],
        overlay: Optional[OverlaySpec] = None,
        sim: Optional[SimSpec] = None,
        model: Union[str, PerformanceModel] = "analytic",
    ) -> ModelPrediction:
        """Model-predicted performance of a compiled kernel (no simulation).

        Runs the named :class:`~repro.metrics.models.PerformanceModel`
        (registry name or instance) over the compiled schedule and memoises
        the prediction on ``(artifact key, requested strategy, model cache
        token, sim)`` — so two models never collide, ``auto`` and the
        concrete strategy it resolves to (one artifact) each get the answer
        the model gives for their own name, and a calibrated model re-fitted
        from new measurements never serves its pre-fit predictions.  This is
        the microseconds-per-config triage path :meth:`tune` ranks
        candidates with; ``sim`` only supplies the stream length the cycle
        estimate is for.
        """
        if not isinstance(handle, CompiledHandle):
            handle = self.compile(
                handle, overlay or OverlaySpec(), allow_schedule_only=True
            )
        elif overlay is not None:
            raise ConfigurationError(
                "pass an overlay spec only when predicting a kernel, not a handle"
            )
        resolved_model = resolve_model(model)
        scheduler = handle.spec.scheduler
        pkey = (handle.key, scheduler, resolved_model.cache_token, sim)
        pred = self._recall(self._predictions, pkey)
        if pred is None:
            pred = self._remember(
                self._predictions,
                pkey,
                resolved_model.predict(
                    handle.dfg,
                    handle.overlay,
                    handle.schedule,
                    sim=sim,
                    scheduler=scheduler,
                ),
            )
        return pred

    def simulate(
        self, handle: CompiledHandle, sim: SimSpec = SimSpec()
    ) -> SimulationResult:
        """Run a data stream through a compiled kernel (spec-driven).

        Schedule-only handles simulate too: the simulator runs from the
        schedule, so a kernel whose codegen overflows the overlay's memories
        can still be measured (exactly what the analytic sweeps and
        ``evaluate(..., sim=SimSpec())`` rely on).
        """
        if not isinstance(handle, CompiledHandle):
            raise ConfigurationError("simulate() takes a handle from compile()")
        return simulate_schedule_with(handle.schedule, sim)

    # ------------------------------------------------------------------
    # sweep / runtime
    # ------------------------------------------------------------------
    def sweep(self, spec: SweepSpec, progress=None) -> List["SweepResult"]:
        """Run a (kernels x overlays) grid through this session.

        Serial execution (``jobs=1`` or a single point) uses this session's
        injected cache; parallel execution fans out over worker lanes, one
        process each taking whole kernels (``jobs=None``: the CPUs this
        process may run on), each warming its own process-wide cache
        (share compilations across workers via the ``REPRO_CACHE_DIR`` disk
        layer).  The lane timings the workers measure join this process's
        timing memo, so a later sweep's workers do not time those shapes again.

        The grid runs on the fault-tolerant runner: the spec's ``retries``
        / ``timeout_s`` bound each point's fault budget (exhausted points
        come back as quarantined error rows, never a lost grid), its
        ``store_dir`` / ``resume`` make the sweep incremental through a
        persistent :class:`~repro.engine.store.ResultStore`, and
        ``progress`` (a callable taking one
        :class:`~repro.engine.sweep.SweepProgress`) streams each row the
        moment it settles.  See ``docs/sweeps.md``.
        """
        from .engine.sweep import run_sweep_spec

        if not isinstance(spec, SweepSpec):
            raise ConfigurationError("sweep() takes a repro.specs.SweepSpec")
        return run_sweep_spec(spec, cache=self.cache, progress=progress)

    def tune(
        self,
        kernel: Optional[str] = None,
        spec: Optional["TuneSpec"] = None,
        progress=None,
        **knobs,
    ) -> "TuneResult":
        """Auto-tune one kernel's overlay/scheduler configuration.

        Enumerates the candidate cross product of a
        :class:`~repro.specs.TuneSpec`, ranks every feasible candidate with
        the spec's performance model (through :meth:`predict`, so triage is
        microseconds per config and scoped to this session's cache), then
        simulates only the top-``budget`` frontier through the sweep runner
        — riding its retry/quarantine machinery and, when the spec names a
        ``store_dir``, its persistent result store (repeat tunes re-simulate
        nothing).  Returns a :class:`~repro.specs.TuneResult`.

        Call it either with a ready spec (``tune(spec=...)``) or with a
        kernel name plus :class:`~repro.specs.TuneSpec` fields as keyword
        arguments::

            tc.tune("gradient", objective="ii", budget=4, model="analytic")
        """
        from .specs import TuneSpec
        from .tune import tune as run_tune

        if spec is None:
            if kernel is None:
                raise ConfigurationError(
                    "tune() needs a kernel name or a TuneSpec"
                )
            spec = TuneSpec(kernel=kernel, **knobs)
        else:
            if not isinstance(spec, TuneSpec):
                raise ConfigurationError("tune() takes a repro.specs.TuneSpec")
            if kernel is not None or knobs:
                raise ConfigurationError(
                    "pass either a TuneSpec or kernel+knobs, not both"
                )
        return run_tune(spec, toolchain=self, progress=progress)

    def cache_stats(self) -> Dict[str, object]:
        """Flat snapshot of this session's compile-cache statistics.

        Works for any injected cache implementation — a plain
        :class:`~repro.engine.cache.ScheduleCache` or the service's
        :class:`~repro.engine.cache.ShardedScheduleCache` — which is what
        lets the overlay service's ``stats`` endpoint report per-tenant
        cache behaviour through one accessor.
        """
        snapshot = self.cache.stats.as_dict()
        snapshot["entries"] = len(self.cache)
        snapshot["capacity"] = self.cache.capacity
        return snapshot

    def runtime(
        self,
        overlay: OverlaySpec = OverlaySpec(variant="v3", depth=8),
        sim: SimSpec = SimSpec(),
    ) -> "OverlayRuntime":
        """An :class:`~repro.runtime.manager.OverlayRuntime` on this session.

        The runtime registers kernels through this session's cache, so
        compilations are shared with :meth:`compile` and :meth:`sweep`.
        """
        from .runtime.manager import OverlayRuntime

        return OverlayRuntime(overlay, sim, cache=self.cache)


def _merge_measured(result: PerformanceResult, measured: SimulationResult) -> None:
    """Fold a simulation into an analytic result (:meth:`Toolchain.evaluate`)."""
    from .metrics.performance import latency_ns

    result.measured_ii = measured.measured_ii
    result.reference_match = measured.matches_reference
    result.latency_cycles = float(measured.latency_cycles)
    result.latency_ns = latency_ns(result.latency_cycles, result.fmax_mhz)
    result.simulated = True


# ---------------------------------------------------------------------------
# the default session
# ---------------------------------------------------------------------------
_DEFAULT_TOOLCHAIN: Optional[Toolchain] = None
_DEFAULT_TC_LOCK = threading.Lock()


def default_toolchain() -> Toolchain:
    """The process-wide session (the CLI, the tuner and the evaluation
    helpers of :mod:`repro.metrics.performance` use it by default).

    It wraps :func:`~repro.engine.cache.default_cache`, so it and explicit
    ``Toolchain()`` sessions share compiled artifacts.
    """
    global _DEFAULT_TOOLCHAIN
    with _DEFAULT_TC_LOCK:
        if _DEFAULT_TOOLCHAIN is None:
            _DEFAULT_TOOLCHAIN = Toolchain()
        return _DEFAULT_TOOLCHAIN
