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
from .engine.cache import CacheKey, CompiledKernel, ScheduleCache, default_cache
from .errors import CodegenError, ConfigurationError, VerificationError
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
    warmup_bound_cycles: int = 0

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
        #: (DFG fingerprint, overlay spec) -> (built overlay, resolved spec,
        #: cache key).  Only *derived sizing* is memoised here — the compiled
        #: artifacts themselves always come from the injected cache, so its
        #: statistics and ``clear()`` stay truthful.
        self._resolved: "OrderedDict[Tuple, Tuple[LinearOverlay, OverlaySpec, CacheKey]]" = (
            OrderedDict()
        )
        self._analytic: "OrderedDict[CacheKey, PerformanceResult]" = OrderedDict()
        #: (cache key, model cache token, sim spec) -> ModelPrediction.  The
        #: model's *cache token* (not just its name) is part of the key, so a
        #: calibrated model's fitted state never serves stale predictions.
        self._predictions: "OrderedDict[Tuple, ModelPrediction]" = OrderedDict()
        self._lock = threading.Lock()

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
        if source is not None:
            if kernel is not None:
                raise ConfigurationError("pass either a kernel or source, not both")
            return self._compile_source(
                source, overlay, name, allow_schedule_only, check=check
            )
        if kernel is None:
            raise ConfigurationError("provide a kernel (name or DFG) or source=")
        dfg = get_kernel(kernel) if isinstance(kernel, str) else kernel
        built, resolved, key = self._resolve(dfg, overlay)
        try:
            compiled = self.cache.get_or_compile_keyed(key, dfg, built)
            handle = self._handle_from_compiled(dfg, built, resolved, key, compiled)
        except CodegenError:
            if not allow_schedule_only:
                raise
            schedule = self.cache.get_schedule(
                dfg, built, scheduler=resolved.scheduler
            )
            handle = CompiledHandle(
                dfg=dfg,
                overlay=built,
                spec=resolved,
                schedule=schedule,
                program=None,
                configuration=None,
                key=key,
            )
        return self._checked(handle, check)

    def _compile_source(
        self,
        source: str,
        overlay: OverlaySpec,
        name: Optional[str],
        allow_schedule_only: bool = False,
        check: bool = False,
    ) -> CompiledHandle:
        from .frontend.cache import default_frontend_cache
        from .frontend.lexer import source_hash

        skey = ("source", source_hash(source), name, overlay)
        with self._lock:
            entry = self._resolved.get(skey)
            if entry is not None:
                self._resolved.move_to_end(skey)
        if entry is not None:
            # Warm path: overlay sizing memoised, so compiling is the
            # cache's pure source-index lookup — the DFG is never hashed.
            built, resolved, key = entry
        else:
            # Cold: lower the source once (content-hashed frontend cache)
            # to size the overlay and record the resolution.
            dfg = default_frontend_cache().dfg(source, name=name)
            built, resolved, key = self._resolve(dfg, overlay)
            with self._lock:
                self._resolved[skey] = (built, resolved, key)
                self._resolved.move_to_end(skey)
                while len(self._resolved) > 4 * self.cache.capacity:
                    self._resolved.popitem(last=False)
        try:
            compiled = self.cache.get_or_compile_source(
                source, built, name=name, scheduler=resolved.scheduler
            )
        except CodegenError:
            if not allow_schedule_only:
                raise
            dfg = default_frontend_cache().dfg(source, name=name)
            return self._checked(
                CompiledHandle(
                    dfg=dfg,
                    overlay=built,
                    spec=resolved,
                    schedule=self.cache.get_schedule(
                        dfg, built, scheduler=resolved.scheduler
                    ),
                    program=None,
                    configuration=None,
                    key=key,
                ),
                check,
            )
        return self._checked(
            self._handle_from_compiled(
                compiled.schedule.dfg, built, resolved, key, compiled
            ),
            check,
        )

    def _resolve(
        self, dfg: DFG, spec: OverlaySpec
    ) -> Tuple[LinearOverlay, OverlaySpec, CacheKey]:
        """Built overlay, concrete spec and cache key for (kernel, spec).

        Memoised per (DFG fingerprint, spec) so a warm :meth:`compile`
        hashes the DFG once and re-derives nothing (no critical-path
        sizing, no second hash inside the cache lookup).
        """
        fingerprint = dfg_fingerprint(dfg)
        rkey = (dfg.name, fingerprint, spec)
        with self._lock:
            entry = self._resolved.get(rkey)
            if entry is not None:
                self._resolved.move_to_end(rkey)
                return entry
        from .schedule.registry import resolve_strategy_name

        built = spec.build_overlay(dfg)
        entry = (
            built,
            OverlaySpec(
                variant=spec.variant,
                depth=built.depth,
                fixed=built.fixed_depth,
                fifo_depth=spec.fifo_depth,
                scheduler=spec.scheduler,
            ),
            # The key canonicalises the strategy ("auto" -> the concrete
            # strategy its dispatch selects), so the default shares cache
            # entries with an explicit "linear"/"clustered" compile; the
            # resolved spec keeps the requested name.
            CacheKey(
                kernel_name=dfg.name,
                dfg_hash=fingerprint,
                variant_name=built.variant.name,
                depth=built.depth,
                fixed_depth=built.fixed_depth,
                fifo_depth=built.fifo_depth,
                scheduler=resolve_strategy_name(spec.scheduler, built),
            ),
        )
        with self._lock:
            self._resolved[rkey] = entry
            self._resolved.move_to_end(rkey)
            while len(self._resolved) > 4 * self.cache.capacity:
                self._resolved.popitem(last=False)
        return entry

    def _handle_from_compiled(
        self,
        dfg: DFG,
        built: LinearOverlay,
        resolved: OverlaySpec,
        key: CacheKey,
        compiled: CompiledKernel,
    ) -> CompiledHandle:
        return CompiledHandle(
            dfg=dfg,
            overlay=built,
            spec=resolved,
            schedule=compiled.schedule,
            program=compiled.program,
            configuration=compiled.configuration,
            key=key,
            warmup_bound_cycles=compiled.warmup_bound_cycles,
        )

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
        with self._lock:
            proto = self._analytic.get(handle.key)
            if proto is not None:
                self._analytic.move_to_end(handle.key)
        if proto is None:
            proto = analytic_performance(handle.dfg, handle.overlay, handle.schedule)
            with self._lock:
                self._analytic[handle.key] = proto
                self._analytic.move_to_end(handle.key)
                while len(self._analytic) > 4 * self.cache.capacity:
                    self._analytic.popitem(last=False)
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
        the prediction on ``(artifact key, model cache token, sim)`` — so
        two models never collide, and a calibrated model re-fitted from new
        measurements never serves its pre-fit predictions.  This is the
        microseconds-per-config triage path :meth:`tune` ranks candidates
        with; ``sim`` only supplies the stream length the cycle estimate is
        for.
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
        pkey = (handle.key, resolved_model.cache_token, sim)
        with self._lock:
            pred = self._predictions.get(pkey)
            if pred is not None:
                self._predictions.move_to_end(pkey)
                return pred
        pred = resolved_model.predict(
            handle.dfg,
            handle.overlay,
            handle.schedule,
            sim=sim,
            scheduler=handle.spec.scheduler,
        )
        with self._lock:
            self._predictions[pkey] = pred
            self._predictions.move_to_end(pkey)
            while len(self._predictions) > 4 * self.cache.capacity:
                self._predictions.popitem(last=False)
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
        injected cache; parallel execution fans out over worker processes,
        each warming its own process-wide cache (share compilations across
        workers via the ``REPRO_CACHE_DIR`` disk layer).

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
