"""Parallel sweep runner: fan a (kernels x overlays x variants) grid out.

Design-space exploration — Fig. 5 scalability, Fig. 6 throughput/latency,
Table III, ad-hoc what-if grids — is embarrassingly parallel: every point
compiles and simulates independently.  This module builds the grid, runs
each point through the compiled-schedule cache and the fast simulation
engine, and optionally fans the points out over a
:class:`concurrent.futures.ProcessPoolExecutor`.

Every helper degrades gracefully to serial execution (``jobs=1``, a single
point, or a platform where processes cannot be spawned), so callers never
need a fallback path of their own.  Results always come back in grid order
regardless of completion order.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SweepError
from ..kernels.library import get_kernel, kernel_names
from ..metrics.performance import (
    EVALUATION_VARIANTS,
    PerformanceResult,
    evaluate_kernel_all_overlays,
    throughput_gops,
)
from ..overlay.resources import overlay_fmax_mhz
from ..sim.overlay import simulate_schedule_with
from ..specs import OverlaySpec, SimSpec, SweepSpec
from .cache import ScheduleCache, default_cache
from .store import ResultStore

#: Default per-point retry budget of the fault-tolerant runner: retries
#: *after* the first attempt, consumed only by faults (worker death, an
#: exception out of the point function, a wall-clock timeout).
DEFAULT_RETRIES = 2

#: Base of the per-point exponential retry backoff (seconds).
RETRY_BACKOFF_S = 0.05


@dataclass(frozen=True)
class SweepPoint:
    """One (kernel, overlay spec) grid point to compile and run::

        SweepPoint("gradient", OverlaySpec("v1"), SimSpec(engine="fast"))
    """

    kernel: str
    overlay: OverlaySpec = OverlaySpec()
    sim: SimSpec = SimSpec(engine="fast")


@dataclass
class SweepResult:
    """Measurements of one sweep point."""

    kernel: str
    variant: str
    overlay_name: str
    overlay_depth: int
    num_blocks: int
    engine: str
    scheduler: str
    analytic_ii: float
    #: None when the run completed fewer than two blocks (no measurable II);
    #: ``throughput_gops`` then falls back to the analytic II.
    measured_ii: Optional[float]
    latency_cycles: int
    total_cycles: int
    fmax_mhz: float
    throughput_gops: float
    matches_reference: Optional[bool]
    elapsed_s: float
    #: Why this point has no measurements: an infeasible strategy/overlay
    #: combination (e.g. ``linear`` on a kernel deeper than the overlay), or
    #: — with ``quarantined`` set — a fault the resilient runner gave up
    #: retrying; ``None`` for measured points.  Both are reported rather
    #: than aborting the grid, so one bad point never loses a sweep.
    error: Optional[str] = None
    #: How many times this point ran (1 + fault retries that preceded the
    #: attempt that produced this row).
    attempts: int = 1
    #: True for rows synthesised by the fault-tolerant runner after the
    #: retry budget was spent (worker death, timeout, raised exception).
    #: Unlike infeasible rows these describe one run's environment, not the
    #: grid point, so the result store never persists them and a resumed
    #: run retries them.
    quarantined: bool = False

    @property
    def infeasible(self) -> bool:
        return self.error is not None

    def as_row(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class SweepProgress:
    """One streamed completion event of a running sweep.

    The fault-tolerant runner invokes the caller's progress callback with
    one of these the moment each point settles (store hit, measured result,
    infeasible row or quarantined fault), so CLIs and services can render
    partial results while the grid is still running.
    """

    index: int
    point: SweepPoint
    result: SweepResult
    completed: int
    total: int
    #: True when the row came out of the persistent result store.
    cached: bool = False


def build_grid(
    kernels: Optional[Sequence[str]] = None,
    *,
    overlays: Sequence[OverlaySpec],
    sim: Optional[SimSpec] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> List[SweepPoint]:
    """Cross kernels x overlay specs into a list of spec-keyed sweep points.

    ``kernels`` defaults to the whole library and ``sim`` to the sweep
    default, ``SimSpec(engine="fast")``.  ``schedulers=`` adds the
    scheduling-strategy axis: every overlay spec is re-keyed with each named
    strategy (scheduler innermost), exactly like
    :attr:`~repro.specs.SweepSpec.schedulers`.
    """
    return _grid(
        SweepSpec(
            kernels=tuple(kernels or kernel_names()),
            overlays=tuple(overlays),
            sim=sim,
            schedulers=None if schedulers is None else tuple(schedulers),
        )
    )


def _grid(spec: SweepSpec) -> List[SweepPoint]:
    """A sweep spec's points: kernel-major, scheduler innermost."""
    return [
        SweepPoint(kernel, overlay, spec.sim)
        for kernel in spec.kernels
        for overlay in spec.grid_overlays()
    ]


def run_point(point: SweepPoint, cache: Optional[ScheduleCache] = None) -> SweepResult:
    """Compile (through the cache) and simulate one sweep point.

    ``cache`` defaults to the process-wide compiled-schedule cache; the
    session API (:meth:`repro.api.Toolchain.sweep`) passes its injected
    cache for serial execution.
    """
    from ..errors import InfeasibleScheduleError
    from ..schedule import analytic_ii  # local import keeps worker start cheap
    from .faults import inject_faults

    started = time.perf_counter()
    inject_faults(point)  # no-op unless a fault plan is installed (tests)
    sim = point.sim
    dfg = get_kernel(point.kernel)
    overlay = point.overlay.build_overlay(dfg)
    # Everything that identifies the point, shared by both outcomes below.
    identity = dict(
        kernel=point.kernel,
        variant=overlay.variant.name,
        overlay_name=overlay.name,
        overlay_depth=overlay.depth,
        num_blocks=sim.num_blocks,
        engine=sim.engine,
        scheduler=point.overlay.scheduler,
        fmax_mhz=float(overlay_fmax_mhz(overlay.variant, overlay.depth)),
    )
    try:
        compiled = (cache if cache is not None else default_cache()).get_or_compile(
            dfg, overlay, scheduler=point.overlay.scheduler
        )
    except (InfeasibleScheduleError, ConfigurationError) as error:
        # An infeasible strategy/overlay pairing is a property of the grid
        # point, not a sweep failure: report it so mixed-strategy grids
        # (e.g. --schedulers all) keep running.  ConfigurationError covers
        # a user-registered strategy that a spawn-started worker process
        # never saw registered (register strategies at import time of a
        # module the workers import to avoid it).
        return SweepResult(
            analytic_ii=0.0,
            measured_ii=None,
            latency_cycles=0,
            total_cycles=0,
            throughput_gops=0.0,
            matches_reference=None,
            elapsed_s=time.perf_counter() - started,
            error=str(error),
            **identity,
        )
    schedule = compiled.schedule
    result = simulate_schedule_with(schedule, sim)
    analytic = float(analytic_ii(schedule))
    # A run too short to complete two blocks has no measurable II; report it
    # as unmeasured and fall back to the analytic model for throughput.
    measured = None if result.measured_ii is None else float(result.measured_ii)
    throughput_ii = analytic if measured is None else measured
    return SweepResult(
        analytic_ii=analytic,
        measured_ii=measured,
        latency_cycles=int(result.latency_cycles),
        total_cycles=int(result.total_cycles),
        throughput_gops=throughput_gops(
            schedule.dfg.num_operations, throughput_ii, identity["fmax_mhz"]
        ),
        matches_reference=result.matches_reference,
        elapsed_s=time.perf_counter() - started,
        **identity,
    )


def _error_result(point: SweepPoint, message: str, attempts: int) -> SweepResult:
    """A quarantined row for a point the runner gave up on.

    Identity fields are derived from the overlay when it still builds (the
    usual case — the fault was environmental); a point whose overlay cannot
    even be constructed falls back to the spec's own fields so the row is
    still attributable.
    """
    try:
        overlay = point.overlay.build_overlay(get_kernel(point.kernel))
        variant = overlay.variant.name
        overlay_name = overlay.name
        overlay_depth = overlay.depth
        fmax = float(overlay_fmax_mhz(overlay.variant, overlay.depth))
    except Exception:  # identity is best-effort for a row that is all error
        variant = point.overlay.variant
        overlay_name = f"{point.overlay.variant}?"
        overlay_depth = point.overlay.depth or 0
        fmax = 0.0
    return SweepResult(
        kernel=point.kernel,
        variant=variant,
        overlay_name=overlay_name,
        overlay_depth=overlay_depth,
        num_blocks=point.sim.num_blocks,
        engine=point.sim.engine,
        scheduler=point.overlay.scheduler,
        analytic_ii=0.0,
        measured_ii=None,
        latency_cycles=0,
        total_cycles=0,
        fmax_mhz=fmax,
        throughput_gops=0.0,
        matches_reference=None,
        elapsed_s=0.0,
        error=message,
        attempts=attempts,
        quarantined=True,
    )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's workers and reap it (stalled points included).

    Used after a wall-clock timeout (the stdlib executor cannot cancel a
    *running* task) and after a :class:`BrokenProcessPool`.  Terminating the
    worker processes first guarantees a stalled task actually dies; the
    shutdown then reaps the management thread.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


#: Message recorded against a point whose worker died underneath it.
_DEATH_MESSAGE = (
    "worker process died repeatedly while running this point "
    "(out of memory, killed, or crashed)"
)


class _ResilientPool:
    """submit/wait dispatcher with retry, quarantine, timeout and pool rebuild.

    One instance runs one grid's points (a sweep's uncached points, or the
    kernels of :func:`evaluate_many`).  The dispatch loop keeps
    at most ``jobs`` futures in flight on the **main pool** (so a per-point
    deadline measured from submission approximates the point's own
    runtime) and classifies every completion:

    * a result — recorded, streamed, stored;
    * a raised exception — attributable, so it is charged against that
      point's retry budget directly and requeued (quarantined past the
      budget);
    * a dead worker (``BrokenProcessPool``) — *not* attributable: every
      future in flight with the dead worker fails identically, so instead
      of charging them all, the implicated points become **suspects** and
      are re-run one at a time on a dedicated single-worker **isolation
      pool**.  A crash there unambiguously identifies the killer (charged,
      eventually quarantined); innocents complete and are never charged
      for a neighbour's crash.  Meanwhile the rebuilt main pool keeps
      draining the untouched remainder of the grid;
    * a missed deadline — a stalled worker cannot be cancelled through the
      executor API, so its pool is torn down; the expired point is charged
      (timeouts are attributable — the deadline was its own) and retried in
      isolation (a re-stall then only ever takes the isolation pool down),
      while in-flight neighbours are resubmitted without charge.

    The loop terminates: charges are bounded by the retry budget, suspects
    settle serially, and each pool teardown consumes either a charge or a
    point's one-way trip from the main pool into isolation.
    """

    def __init__(self, points, fn, jobs, retries, timeout_s, record, quarantine):
        self.points = points
        self.fn = fn
        self.jobs = jobs
        self.retries = retries
        self.timeout_s = timeout_s
        self.record = record
        self.quarantine = quarantine
        self.attempts: Dict[int, int] = {}
        self.queue: "deque[int]" = deque()  # fresh points, main pool
        self.suspects: "deque[int]" = deque()  # implicated points, isolation pool
        self.pending: Dict[object, int] = {}  # main-pool future -> grid index
        self.isolated: Optional[tuple] = None  # (future, index) in isolation
        self.deadlines: Dict[object, float] = {}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.iso_pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def run(self, todo: Sequence[int]) -> bool:
        """Dispatch ``todo`` (indices into the grid); False when no pool."""
        try:
            self.pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(todo)))
        except (OSError, PermissionError, ImportError):
            # Only pool *creation* degrades (sandboxes, exotic platforms);
            # the caller falls back to the serial path.
            return False
        self.queue.extend(todo)
        try:
            while self.queue or self.suspects or self.pending or self.isolated:
                self._fill()
                self._drain_once()
        finally:
            self.pool.shutdown(wait=True)
            if self.iso_pool is not None:
                self.iso_pool.shutdown(wait=True)
        return True

    # ------------------------------------------------------------------
    def _arm(self, future) -> None:
        if self.timeout_s is not None:
            self.deadlines[future] = time.monotonic() + self.timeout_s

    def _fill(self) -> None:
        if self.isolated is None and self.suspects:
            index = self.suspects.popleft()
            future = self._submit_isolated(index)
            self.isolated = (future, index)
            self._arm(future)
        while self.queue and len(self.pending) < self.jobs:
            index = self.queue.popleft()
            future = self._submit_main(index)
            self.pending[future] = index
            self._arm(future)

    def _submit_main(self, index: int):
        try:
            return self.pool.submit(self.fn, self.points[index])
        except BrokenProcessPool:
            # The pool broke between completions (e.g. a worker died while
            # idle); rebuild and retry the submission once.
            self._rebuild_main()
            return self.pool.submit(self.fn, self.points[index])

    def _submit_isolated(self, index: int):
        if self.iso_pool is None:
            self.iso_pool = ProcessPoolExecutor(max_workers=1)
        try:
            return self.iso_pool.submit(self.fn, self.points[index])
        except BrokenProcessPool:
            self._teardown_iso()
            self.iso_pool = ProcessPoolExecutor(max_workers=1)
            return self.iso_pool.submit(self.fn, self.points[index])

    def _drain_once(self) -> None:
        futures = list(self.pending)
        if self.isolated is not None:
            futures.append(self.isolated[0])
        wait_s = None
        if self.deadlines:
            wait_s = max(0.0, min(self.deadlines.values()) - time.monotonic())
        done, _ = wait(futures, timeout=wait_s, return_when=FIRST_COMPLETED)
        if done:
            self._settle(done)
        elif self.deadlines:
            self._expire_deadlines()

    # ------------------------------------------------------------------
    def _settle(self, done) -> None:
        main_broken = False
        for future in done:
            if self.isolated is not None and future is self.isolated[0]:
                self._settle_isolated(future)
                continue
            index = self.pending.pop(future)
            self.deadlines.pop(future, None)
            try:
                result = future.result()
            except BrokenProcessPool:
                # Unattributable: someone in this pool generation died.
                # Re-run under isolation, where a crash has one suspect.
                main_broken = True
                self.suspects.append(index)
            except Exception as exc:  # noqa: BLE001 — classified, not hidden
                self._charge(index, f"{type(exc).__name__}: {exc}", self.queue)
            else:
                self.record(index, result, self.attempts.get(index, 0) + 1)
        if main_broken:
            # The executor is unusable; settle in-flight futures that
            # finished with data, move the rest to isolation, start fresh.
            for future, index in list(self.pending.items()):
                self.deadlines.pop(future, None)
                if future.done():
                    try:
                        result = future.result()
                    except Exception:  # noqa: BLE001 — broken with the pool
                        self.suspects.append(index)
                    else:
                        self.record(index, result, self.attempts.get(index, 0) + 1)
                else:
                    self.suspects.append(index)
            self.pending.clear()
            self._rebuild_main()

    def _settle_isolated(self, future) -> None:
        index = self.isolated[1]
        self.isolated = None
        self.deadlines.pop(future, None)
        try:
            result = future.result()
        except BrokenProcessPool:
            # Alone in its pool: this point killed its worker, certainly.
            self._teardown_iso()
            self._charge(index, _DEATH_MESSAGE, self.suspects)
        except Exception as exc:  # noqa: BLE001 — classified, not hidden
            self._charge(index, f"{type(exc).__name__}: {exc}", self.suspects)
        else:
            self.record(index, result, self.attempts.get(index, 0) + 1)

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        expired = {f for f, deadline in self.deadlines.items() if deadline <= now}
        if not expired:
            return
        timeout_message = f"timed out after {self.timeout_s:g}s and was killed"
        if self.isolated is not None and self.isolated[0] in expired:
            future, index = self.isolated
            self.isolated = None
            self.deadlines.pop(future, None)
            expired.discard(future)
            self._teardown_iso()  # the only way to kill the stalled worker
            self._charge(index, timeout_message, self.suspects)
        if not any(future in self.pending for future in expired):
            return
        # A stalled main-pool worker holds its slot forever — tear the pool
        # down, charge the expired points (retried in isolation so a
        # re-stall cannot disturb neighbours again), resubmit the innocent
        # in-flight points free of charge.
        victims = []
        for future, index in list(self.pending.items()):
            self.deadlines.pop(future, None)
            if future in expired:
                self._charge(index, timeout_message, self.suspects)
            elif future.done():
                try:
                    self.record(index, future.result(), self.attempts.get(index, 0) + 1)
                except Exception:  # noqa: BLE001 — raced the teardown
                    self.suspects.append(index)
            else:
                victims.append(index)
        self.pending.clear()
        self._rebuild_main()
        self.queue.extendleft(reversed(victims))

    # ------------------------------------------------------------------
    def _charge(self, index: int, message: str, requeue: "deque[int]") -> None:
        attempts = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempts
        if attempts > self.retries:
            self.quarantine(index, message, attempts)
            return
        time.sleep(min(1.0, RETRY_BACKOFF_S * (2 ** (attempts - 1))))
        requeue.append(index)

    def _rebuild_main(self) -> None:
        _terminate_pool(self.pool)
        remaining = len(self.queue) + len(self.pending) + 1
        self.pool = ProcessPoolExecutor(max_workers=min(self.jobs, max(1, remaining)))

    def _teardown_iso(self) -> None:
        if self.iso_pool is not None:
            _terminate_pool(self.iso_pool)
            self.iso_pool = None


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
    *,
    retries: int = DEFAULT_RETRIES,
    timeout_s: Optional[float] = None,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> List[SweepResult]:
    """Run a sweep grid fault-tolerantly, fanning points out over workers.

    Engine names are validated by the specs at point construction, so a
    grid cannot hold an invalid point.  Results always come back in grid
    order.

    Survivability (the behaviour the fault-injection suite pins down):

    * a point whose attempt *faults* — its worker dies, it raises, or it
      exceeds ``timeout_s`` — is retried up to ``retries`` times with
      exponential backoff, then **quarantined**: reported as a
      ``SweepResult(error=..., quarantined=True)`` row, like infeasible
      points, instead of aborting the grid;
    * a dead worker breaks the process pool; the runner recreates the pool
      and re-runs everything that was in flight one point at a time on a
      single-worker isolation pool, so the crash is charged to the point
      that actually causes it — one worker death never loses completed or
      unrelated work, and never quarantines an innocent neighbour;
    * ``store`` (a :class:`~repro.engine.store.ResultStore`) makes the grid
      incremental: with ``resume`` (the default) points whose content key
      already has an entry are served from disk, and every computed row is
      persisted atomically the moment it settles, so a killed run resumes
      from exactly where it died.  ``resume=False`` remeasures every point
      but still persists fresh rows.  Quarantined rows are never stored;
    * ``progress`` streams one :class:`SweepProgress` per settled point.

    ``cache`` (a session-injected compiled-schedule cache) is honored on
    every in-process path (serial jobs, single points, and the
    pool-creation fallback), so an isolated session never leaks
    compilations into the process-wide default cache; worker processes
    always hold their own in-memory compile cache (warmed across the
    points each handles) — set ``REPRO_CACHE_DIR`` to share compilations
    between workers and across runs through the disk layer.
    """
    points = list(points)
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    total = len(points)
    results: List[Optional[SweepResult]] = [None] * total
    completed = 0
    keys: Dict[int, str] = {}

    def settle(index: int, result: SweepResult, cached: bool) -> None:
        nonlocal completed
        results[index] = result
        completed += 1
        if store is not None and not cached and not result.quarantined:
            store.put(keys[index], points[index], result)
        if progress is not None:
            progress(
                SweepProgress(
                    index=index,
                    point=points[index],
                    result=result,
                    completed=completed,
                    total=total,
                    cached=cached,
                )
            )

    todo: List[int] = []
    for index, point in enumerate(points):
        if store is not None:
            keys[index] = store.key_for(point)
            if resume:
                stored = store.get(keys[index], point)
                if stored is not None:
                    settle(index, stored, cached=True)
                    continue
        todo.append(index)

    if not todo:
        return results  # every point came out of the store

    serial_point = run_point if cache is None else (
        lambda point: run_point(point, cache=cache)
    )

    def record(index: int, result: SweepResult, attempts: int) -> None:
        result.attempts = attempts
        settle(index, result, cached=False)

    def quarantine(index: int, message: str, attempts: int) -> None:
        settle(index, _error_result(points[index], message, attempts), cached=False)

    if jobs is None:
        jobs = os.cpu_count() or 1
    ran_parallel = False
    if jobs > 1 and len(todo) > 1:
        runner = _ResilientPool(
            points, run_point, jobs, retries, timeout_s, record, quarantine
        )
        ran_parallel = runner.run(todo)
    if not ran_parallel:
        # Serial path: same retry/quarantine policy, minus what only exists
        # with processes (worker death, enforceable timeouts).
        for index in todo:
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = serial_point(points[index])
                except Exception as exc:  # noqa: BLE001 — retried, then reported
                    if attempts > retries:
                        quarantine(index, f"{type(exc).__name__}: {exc}", attempts)
                        break
                    time.sleep(min(1.0, RETRY_BACKOFF_S * (2 ** (attempts - 1))))
                else:
                    record(index, result, attempts)
                    break
    return results


def run_sweep_spec(
    spec: SweepSpec,
    cache: Optional[ScheduleCache] = None,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> List[SweepResult]:
    """Expand a :class:`~repro.specs.SweepSpec` into its grid and run it.

    The grid is ``kernels x overlays`` in spec order (kernel-major), each
    point sharing the spec's :class:`~repro.specs.SimSpec`; a
    ``schedulers`` axis expands innermost (every overlay spec re-keyed per
    strategy, via :meth:`~repro.specs.SweepSpec.grid_overlays`).  The
    spec's robustness knobs (``retries``, ``timeout_s``, ``store_dir`` /
    ``resume``) configure the fault-tolerant runner directly.
    """
    points = _grid(spec)
    store = ResultStore(spec.store_dir) if spec.store_dir else None
    return run_sweep(
        points,
        jobs=spec.jobs,
        cache=cache,
        retries=spec.retries,
        timeout_s=spec.timeout_s,
        store=store,
        resume=spec.resume,
        progress=progress,
    )


# ---------------------------------------------------------------------------
# benchmark-harness helpers (Fig. 6 / Table III adopt these)
# ---------------------------------------------------------------------------
class _EvaluateTask(NamedTuple):
    """One kernel of :func:`evaluate_many` (fault rules match ``kernel``)."""

    kernel: str
    variants: Tuple[str, ...]
    fixed_depth: Optional[int]
    simulate: bool


def _evaluate_task(
    task: _EvaluateTask, cache: Optional[ScheduleCache] = None
) -> Dict[str, PerformanceResult]:
    from .faults import inject_faults

    inject_faults(task)  # no-op unless a fault plan is installed (tests)
    return evaluate_kernel_all_overlays(
        get_kernel(task.kernel),
        variants=task.variants,
        fixed_depth=task.fixed_depth,
        simulate=task.simulate,
        cache=cache,
    )


def evaluate_many(
    kernels: Sequence[str],
    variants: Sequence[str] = EVALUATION_VARIANTS,
    fixed_depth: Optional[int] = None,
    simulate: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
) -> Dict[str, Dict[str, PerformanceResult]]:
    """Evaluate many kernels on many overlay variants, one worker per kernel.

    This is the engine behind the Fig. 6 / Table III harnesses: identical
    results to calling :func:`evaluate_kernel_all_overlays` in a loop, but
    the per-kernel work fans out over the fault-tolerant pool of
    :func:`run_sweep`, without retries.  A kernel whose evaluation raises,
    or whose worker process dies, raises :class:`~repro.errors.SweepError`
    naming that kernel (and only the kernels that failed: a neighbour of a
    dying worker is re-run in isolation, not blamed); on the serial path the
    original exception is chained.

    ``cache`` (a session-injected compiled-schedule cache) is honored on
    every in-process path — exactly like :func:`run_sweep` — so an isolated
    :class:`~repro.api.Toolchain` session's evaluations do not leak
    compilations into the process-wide default cache.  Worker processes
    warm their own caches (share across workers via ``REPRO_CACHE_DIR``).
    """
    tasks = [_EvaluateTask(name, tuple(variants), fixed_depth, simulate) for name in kernels]
    results: Dict[int, Dict[str, PerformanceResult]] = {}
    failures: Dict[int, str] = {}

    def record(index: int, result: Dict[str, PerformanceResult], attempts: int) -> None:
        results[index] = result

    def fail(index: int, message: str, attempts: int) -> None:
        failures[index] = message

    if jobs is None:
        jobs = os.cpu_count() or 1
    ran_parallel = False
    if jobs > 1 and len(tasks) > 1:
        runner = _ResilientPool(tasks, _evaluate_task, jobs, 0, None, record, fail)
        ran_parallel = runner.run(range(len(tasks)))
    if not ran_parallel:
        for index, task in enumerate(tasks):
            try:
                results[index] = _evaluate_task(task, cache)
            except Exception as exc:  # noqa: BLE001 — re-raised, naming the kernel
                raise SweepError(
                    f"kernel {task.kernel!r} failed: {type(exc).__name__}: {exc}"
                ) from exc
    if failures:
        raise SweepError(
            "; ".join(
                f"kernel {tasks[index].kernel!r} failed: {failures[index]}"
                for index in sorted(failures)
            )
        )
    return {task.kernel: results[index] for index, task in enumerate(tasks)}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def results_to_json(results: Sequence[SweepResult], indent: int = 2) -> str:
    """Serialize sweep results as a JSON array of flat row objects."""
    return json.dumps([result.as_row() for result in results], indent=indent)


def render_sweep_table(results: Sequence[SweepResult]) -> str:
    """Plain-text table of sweep results (CLI output)."""
    header = (
        f"{'kernel':10s} {'overlay':8s} {'sched':9s} {'engine':7s} "
        f"{'blocks':>6s} {'II':>7s} "
        f"{'meas II':>8s} {'lat cyc':>8s} {'GOPS':>7s} {'ref':>4s} {'sim s':>8s}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        if r.infeasible:
            label = "quarantined" if r.quarantined else "infeasible"
            lines.append(
                f"{r.kernel:10s} {r.overlay_name:8s} {r.scheduler:9s} "
                f"{r.engine:7s} {label} ({r.error})"
            )
            continue
        check = {True: "OK", False: "FAIL", None: "-"}[r.matches_reference]
        measured = "-" if r.measured_ii is None else f"{r.measured_ii:.2f}"
        lines.append(
            f"{r.kernel:10s} {r.overlay_name:8s} {r.scheduler:9s} "
            f"{r.engine:7s} "
            f"{r.num_blocks:6d} {r.analytic_ii:7.2f} {measured:>8s} "
            f"{r.latency_cycles:8d} {r.throughput_gops:7.3f} {check:>4s} "
            f"{r.elapsed_s:8.4f}"
        )
    return "\n".join(lines)
