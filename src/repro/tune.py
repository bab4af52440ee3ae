"""The scheduler/overlay auto-tuner: analytic triage, then simulate the frontier.

The scheduler benchmarks show no single strategy wins everywhere (linear
takes mean II, clustered/auto take GOPS), so choosing a configuration per
kernel is a search over ``variants x depths x fifo_depths x schedulers`` —
hundreds of candidates, milliseconds each to *simulate* but only
microseconds each to *rank* with a performance model from
:mod:`repro.metrics.models`.  The tuner exploits exactly that asymmetry:

1. **enumerate** the candidate cross product of a
   :class:`~repro.specs.TuneSpec` (deduplicated against the compile-cache
   canonicalisation, so ``auto`` never doubles a concrete strategy);
2. **triage** every candidate analytically with the spec's model via
   :meth:`repro.api.Toolchain.predict` (session-scoped, memoised);
   because every built-in model's predicted II is a certified lower bound
   on the measured II (``tests/test_model_fidelity.py``), a candidate whose
   prediction already loses cannot win once measured;
3. **simulate** only the top-``budget`` frontier through the fault-tolerant
   sweep runner (:func:`repro.engine.sweep.run_sweep`), riding its
   retry/quarantine machinery and — when the spec names a ``store_dir`` —
   its persistent :class:`~repro.engine.store.ResultStore`, so a repeated
   or enlarged tune only simulates configs it has never measured and the
   accumulated rows feed the ``calibrated`` model's fit;
4. **choose** by the *measured* objective among the frontier and report a
   :class:`~repro.specs.TuneResult`: every candidate with its predicted
   metrics, the simulated ones with measured metrics and the signed
   model-vs-measured II error.

The result is a pure function of the spec and the measured rows (no timing
fields), so the same spec against the same store reproduces the identical
:class:`~repro.specs.TuneResult` — a property the hypothesis suite pins.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from .api import Toolchain, default_toolchain
from .engine.store import ResultStore
from .engine.sweep import INFEASIBLE_ERRORS, SweepPoint, SweepResult, run_sweep
from .errors import ConfigurationError
from .kernels.library import get_kernel
from .metrics.models import resolve_model
from .metrics.performance import latency_ns
from .specs import OverlaySpec, TuneCandidate, TuneResult, TuneSpec


def enumerate_candidates(spec: TuneSpec, dfg=None) -> List[OverlaySpec]:
    """The deduplicated candidate overlays of one tune spec, in axis order.

    The cross product runs variant-major (variants, then FIFO depths, then
    depths, then schedulers — matching the spec's field order).  Candidates
    are deduplicated by their *resolved* identity — depth auto-sizing
    filled in against the kernel and the strategy canonicalised the way the
    compile cache keys it — so ``auto`` and the concrete strategy it
    dispatches to, or ``depth=None`` and the explicit depth it resolves to,
    never appear twice.  Axis combinations the spec layer itself rejects
    (e.g. an explicit depth the variant cannot implement) are skipped, not
    errors; candidates that fail at *scheduling* time survive enumeration
    and come back from :func:`tune` as infeasible rows.
    """
    from .schedule.registry import resolve_strategy_name, scheduler_names

    if spec.schedulers is not None:
        schedulers: Tuple[str, ...] = spec.schedulers
    else:
        schedulers = tuple(n for n in scheduler_names() if n != "auto")
    if dfg is None:
        dfg = get_kernel(spec.kernel)
    candidates: List[OverlaySpec] = []
    seen = set()
    for variant in spec.variants:
        for fifo_depth in spec.fifo_depths:
            for depth in spec.depths:
                for scheduler in schedulers:
                    try:
                        candidate = OverlaySpec(
                            variant=variant,
                            depth=depth,
                            fifo_depth=fifo_depth,
                            scheduler=scheduler,
                        )
                        overlay = candidate.build_overlay(dfg)
                        strategy = resolve_strategy_name(scheduler, overlay)
                    except ConfigurationError:
                        continue
                    identity = (
                        overlay.variant.name,
                        overlay.depth,
                        overlay.fixed_depth,
                        overlay.fifo_depth,
                        strategy,
                    )
                    if identity in seen:
                        continue
                    seen.add(identity)
                    candidates.append(candidate)
    return candidates


def _merge_measured(
    candidate: TuneCandidate, row: SweepResult
) -> TuneCandidate:
    """Fold one measured sweep row into its frontier candidate."""
    if row.error:
        return replace(candidate, error=row.error)
    measured_ii = (
        float(row.measured_ii) if row.measured_ii is not None else None
    )
    ii_error = None
    if measured_ii and candidate.predicted_ii is not None:
        ii_error = (measured_ii - candidate.predicted_ii) / measured_ii
    return replace(
        candidate,
        simulated=True,
        measured_ii=measured_ii,
        measured_gops=row.throughput_gops,
        measured_cycles=row.total_cycles,
        measured_latency_cycles=row.latency_cycles,
        ii_error=ii_error,
    )


def tune(
    spec: TuneSpec,
    toolchain: Optional[Toolchain] = None,
    progress: Optional[Callable] = None,
    store: Optional[ResultStore] = None,
) -> TuneResult:
    """Run one auto-tune: triage analytically, simulate the frontier, choose.

    ``toolchain`` is the session every compile, prediction and serially
    simulated frontier point runs on (default: the process-wide session);
    ``store`` overrides the spec's ``store_dir`` with a ready
    :class:`ResultStore` instance (tests inject probe stores this way).
    ``progress`` streams the frontier simulation's
    :class:`~repro.engine.sweep.SweepProgress` events.
    """
    if not isinstance(spec, TuneSpec):
        raise ConfigurationError("tune() takes a repro.specs.TuneSpec")
    session = toolchain if toolchain is not None else default_toolchain()
    dfg = get_kernel(spec.kernel)
    model = resolve_model(spec.model)
    if store is None and spec.store_dir is not None:
        store = ResultStore(spec.store_dir)
    if store is not None:
        # Accumulated measurements calibrate fitting models; the cache
        # token folds the fitted state in, so predictions never go stale.
        # The rows are read lazily, so a closed-form model reads none.
        model.fit(store.results())

    # --- triage: predict every candidate, collect scheduling failures ----
    ranked: List[Tuple[float, int, OverlaySpec, "object"]] = []
    infeasible: List[Tuple[OverlaySpec, str]] = []
    for index, candidate in enumerate(enumerate_candidates(spec, dfg)):
        try:
            handle = session.compile(dfg, candidate, allow_schedule_only=True)
        except INFEASIBLE_ERRORS as error:
            infeasible.append((candidate, f"{type(error).__name__}: {error}"))
            continue
        prediction = session.predict(handle, sim=spec.sim, model=model)
        score = prediction.objective_value(spec.objective)
        ranked.append((score, index, candidate, prediction))
    ranked.sort(key=lambda entry: (entry[0], entry[1]))

    candidates: List[TuneCandidate] = []
    for rank, (_, _, overlay, prediction) in enumerate(ranked):
        candidates.append(
            TuneCandidate(
                overlay=overlay,
                rank=rank,
                predicted_ii=prediction.ii,
                predicted_cycles=prediction.cycles,
                predicted_latency_ns=prediction.latency_ns,
                predicted_gops=prediction.throughput_gops,
                fmax_mhz=prediction.fmax_mhz,
            )
        )
    for offset, (overlay, error) in enumerate(infeasible):
        candidates.append(
            TuneCandidate(overlay=overlay, rank=len(ranked) + offset, error=error)
        )

    # --- simulate the frontier ------------------------------------------
    frontier = candidates[: min(spec.budget, len(ranked))]
    if frontier:
        points = [
            SweepPoint(spec.kernel, candidate.overlay, spec.sim)
            for candidate in frontier
        ]
        rows = run_sweep(
            points,
            jobs=spec.jobs,
            toolchain=session,
            store=store,
            resume=spec.resume,
            progress=progress,
        )
        for position, row in enumerate(rows):
            candidates[position] = _merge_measured(candidates[position], row)

    # --- choose by the measured objective -------------------------------
    best_index: Optional[int] = None
    best_score: Optional[float] = None
    for position, candidate in enumerate(candidates):
        if not candidate.simulated:
            continue
        row_score = _candidate_objective(candidate, spec.objective)
        if row_score is None:
            continue
        if best_score is None or row_score < best_score:
            best_index, best_score = position, row_score
    if best_index is None and ranked:
        # Nothing measurable (e.g. every frontier point quarantined): fall
        # back to the model's top-ranked feasible candidate.
        best_index = 0
    return TuneResult(
        spec=spec, candidates=tuple(candidates), best_index=best_index
    )


def _candidate_objective(
    candidate: TuneCandidate, objective: str
) -> Optional[float]:
    """The minimised measured score of one simulated candidate."""
    if candidate.error is not None:
        return None
    if objective == "ii":
        if candidate.measured_ii is not None:
            return candidate.measured_ii
        return candidate.predicted_ii
    if objective == "gops":
        if not candidate.measured_gops:
            return None
        return -candidate.measured_gops
    if candidate.fmax_mhz and candidate.measured_latency_cycles is not None:
        return latency_ns(float(candidate.measured_latency_cycles), candidate.fmax_mhz)
    return None
