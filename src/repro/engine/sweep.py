"""Parallel sweep runner: fan a (kernels x overlays x variants) grid out.

Design-space exploration — Fig. 5 scalability, the tuner's frontiers,
ad-hoc what-if grids — is embarrassingly parallel: every point compiles and
simulates independently.  This module builds the grid, compiles and
simulates each point through a :class:`~repro.api.Toolchain` session, and
optionally fans the points out over worker lanes: one single-worker
:class:`concurrent.futures.ProcessPoolExecutor` per lane, each taking whole
kernels and sending the lane timings it measures home to this process's
timing memo.

A sweep degrades gracefully to serial execution (``jobs=1``, a single
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
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, InfeasibleScheduleError, VerificationError
from ..kernels.library import get_kernel, kernel_names
from ..metrics.performance import throughput_gops
from ..overlay.architecture import LinearOverlay
from ..overlay.resources import overlay_fmax_mhz
from ..specs import DEFAULT_RETRIES, OverlaySpec, SimSpec, SweepSpec
from . import fastsim
from .store import ResultStore

#: Base of the per-point exponential retry backoff (seconds).
RETRY_BACKOFF_S = 0.05


def _backoff_s(attempts: int) -> float:
    """How long a point waits before its next run after ``attempts`` charged runs."""
    return min(1.0, RETRY_BACKOFF_S * 2 ** (attempts - 1))


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
    """Measurements of one sweep point.

    A row without measurements (``error`` set) keeps the defaults of the
    measured fields.
    """

    kernel: str
    variant: str
    overlay_name: str
    overlay_depth: int
    num_blocks: int
    engine: str
    scheduler: str
    analytic_ii: float = 0.0
    #: None when the run completed fewer than two blocks (no measurable II);
    #: ``throughput_gops`` then falls back to the analytic II.
    measured_ii: Optional[float] = None
    latency_cycles: int = 0
    total_cycles: int = 0
    fmax_mhz: float = 0.0
    throughput_gops: float = 0.0
    matches_reference: Optional[bool] = None
    elapsed_s: float = 0.0
    #: Why this point has no measurements: an infeasible point (see
    #: :func:`run_point`), or — with ``quarantined`` set — a fault the
    #: resilient runner gave up retrying; ``None`` for measured points.
    #: Both are reported rather than aborting the grid, so one bad point
    #: never loses a sweep.
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
    spec = SweepSpec(
        kernels=tuple(kernels or kernel_names()),
        overlays=tuple(overlays),
        sim=sim,
        schedulers=None if schedulers is None else tuple(schedulers),
    )
    return [
        SweepPoint(kernel, overlay, spec.sim)
        for kernel in spec.kernels
        for overlay in spec.grid_overlays()
    ]


def run_point(point: SweepPoint, toolchain: Optional["Toolchain"] = None) -> SweepResult:
    """Compile and simulate one sweep point through a session.

    ``toolchain`` defaults to the process-wide session
    (:func:`~repro.api.default_toolchain`), which is what each worker lane
    runs on; :meth:`repro.api.Toolchain.sweep` passes itself for serial
    execution.  The point compiles with ``allow_schedule_only=True``, so a
    kernel whose codegen overflows the register file or instruction memory
    is measured from its schedule, as :meth:`~repro.api.Toolchain.evaluate`
    measures it.  A compile that fails deterministically
    (:class:`~repro.errors.InfeasibleScheduleError`,
    :class:`~repro.errors.ConfigurationError`, or a third-party strategy's
    :class:`~repro.errors.VerificationError`) is an infeasible row; any
    other exception propagates, and the runner retries and quarantines it.
    """
    from ..api import default_toolchain  # local import: api imports the engine package
    from ..schedule import analytic_ii
    from .faults import inject_faults

    started = time.perf_counter()
    inject_faults(point)  # no-op unless a fault plan is installed (tests)
    session = toolchain if toolchain is not None else default_toolchain()
    try:
        handle = session.compile(point.kernel, point.overlay, allow_schedule_only=True)
    except (InfeasibleScheduleError, ConfigurationError, VerificationError) as error:
        # A property of the grid point, not a sweep failure: report it so
        # mixed-strategy grids (e.g. --schedulers all) keep running.
        # ConfigurationError also covers a user-registered strategy that a
        # spawn-started worker never saw registered (register strategies at
        # import time of a module the workers import to avoid it).
        return _unmeasured(point, str(error), elapsed_s=time.perf_counter() - started)
    result = session.simulate(handle, point.sim)
    analytic = float(analytic_ii(handle.schedule))
    # A run too short to complete two blocks has no measurable II; report it
    # as unmeasured and fall back to the analytic model for throughput.
    measured = None if result.measured_ii is None else float(result.measured_ii)
    identity = _identity(point, handle.overlay)
    return SweepResult(
        analytic_ii=analytic,
        measured_ii=measured,
        latency_cycles=int(result.latency_cycles),
        total_cycles=int(result.total_cycles),
        throughput_gops=throughput_gops(
            handle.dfg.num_operations,
            analytic if measured is None else measured,
            identity["fmax_mhz"],
        ),
        matches_reference=result.matches_reference,
        elapsed_s=time.perf_counter() - started,
        **identity,
    )


def _identity(point: SweepPoint, overlay: Optional[LinearOverlay]) -> Dict[str, Any]:
    """The fields that identify a row of ``point`` on its built ``overlay``;
    ``None`` (the overlay does not build) falls back to the spec's fields."""
    if overlay is None:
        variant, name = point.overlay.variant, f"{point.overlay.variant}?"
        depth, fmax = point.overlay.depth or 0, 0.0
    else:
        variant, name, depth = overlay.variant.name, overlay.name, overlay.depth
        fmax = float(overlay_fmax_mhz(overlay.variant, depth))
    return dict(
        kernel=point.kernel,
        variant=variant,
        overlay_name=name,
        overlay_depth=depth,
        num_blocks=point.sim.num_blocks,
        engine=point.sim.engine,
        scheduler=point.overlay.scheduler,
        fmax_mhz=fmax,
    )


def _unmeasured(point: SweepPoint, error: str, **fields) -> SweepResult:
    """A row without measurements: an infeasible point, or (``quarantined``)
    one the runner gave up on after ``attempts`` runs."""
    try:
        overlay: Optional[LinearOverlay] = point.overlay.build_overlay(get_kernel(point.kernel))
    except Exception:  # identity is best-effort for a row that is all error
        overlay = None
    return SweepResult(error=error, **fields, **_identity(point, overlay))


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
    "worker process died while running this point "
    "(out of memory, killed, or crashed)"
)


def _resolve_jobs(jobs: Optional[int]) -> int:
    """``jobs``, or for ``None`` the CPUs this process may run on.

    That is the affinity mask where the platform has one, so a process
    pinned by ``taskset`` or a cgroup cpuset starts no worker it cannot
    run, and the machine's CPU count elsewhere.
    """
    if jobs is not None:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_in_lane(point: SweepPoint):
    """Run ``point`` in a lane's worker.

    Returns the row together with the lane timings this worker's memo
    gained meanwhile, which the parent adds to its own memo.
    """
    known = fastsim._TIMINGS.keys()
    result = run_point(point)
    return result, fastsim._TIMINGS.since(known)


class _Lane:
    """One single-worker process pool, its queue and its one point in flight."""

    def __init__(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.queue: "deque[int]" = deque()
        self.future = None
        self.index = 0
        self.deadline: Optional[float] = None
        #: When the lane's charged point is due to run again, if it waits.
        self.retry_at: Optional[float] = None

    def replace(self) -> None:
        """Kill the worker (dead, stalled or alive) and start a fresh pool."""
        _terminate_pool(self.pool)
        self.pool = ProcessPoolExecutor(max_workers=1)


class _Lanes:
    """Worker lanes with kernel affinity, retry, quarantine and timeout.

    One instance runs a sweep's uncached points on ``jobs`` **lanes**.  Each
    lane is a single-worker process pool with at most one point in flight,
    fed from its own queue:

    * **affinity** — points are grouped by kernel, and whole groups are
      dealt, longest first, to the shortest queue, so each kernel's stream
      shapes are timed, and its evaluator built, on one worker.  A lane
      whose queue runs dry takes the last queued point of the longest
      queue, so a one-kernel grid still runs on every lane;
    * **timings come home** — each point runs through :func:`_run_in_lane`,
      and the parent adds the lane timings the worker gained to its own
      memo before it records the row, so workers forked later (the next
      sweep's lanes, a lane's replacement worker) start with them;
    * **every fault is attributable** — a raised exception, a dead worker
      (``BrokenProcessPool``) or a missed deadline is charged to the one
      point its lane holds.  A dead or stalled worker is replaced, and the
      point retries on its own lane with exponential backoff until its
      ``retries`` budget is spent; then it is quarantined.  Points on other
      lanes are never charged for it, and keep running while it waits out
      its backoff.

    The loop terminates: every run either settles its point or charges it,
    and charges are bounded by the retry budget.
    """

    def __init__(self, points, jobs, retries, timeout_s, record, quarantine):
        self.points = points
        self.jobs = jobs
        self.retries = retries
        self.timeout_s = timeout_s
        self.record = record
        self.quarantine = quarantine
        self.attempts: Dict[int, int] = {}
        self.lanes: List[_Lane] = []

    # ------------------------------------------------------------------
    def run(self, todo: Sequence[int]) -> bool:
        """Dispatch ``todo`` (indices into the grid); False when no pool."""
        try:
            for _ in range(min(self.jobs, len(todo))):
                self.lanes.append(_Lane())
        except (OSError, PermissionError, ImportError):
            # Only pool *creation* degrades (sandboxes, exotic platforms);
            # the caller falls back to the serial path.
            for lane in self.lanes:
                lane.pool.shutdown(wait=True)
            return False
        groups: Dict[str, List[int]] = {}
        for index in todo:
            groups.setdefault(self.points[index].kernel, []).append(index)
        for group in sorted(groups.values(), key=len, reverse=True):
            min(self.lanes, key=lambda lane: len(lane.queue)).queue.extend(group)
        try:
            while True:
                for lane in self.lanes:
                    if lane.retry_at is not None and lane.retry_at <= time.monotonic():
                        lane.retry_at = None
                        self._submit(lane, lane.index)
                    elif lane.future is None and lane.retry_at is None:
                        self._feed(lane)
                busy = [lane for lane in self.lanes if lane.future is not None]
                waiting = [lane.retry_at for lane in self.lanes if lane.retry_at is not None]
                if not busy and not waiting:
                    break
                wakes = waiting + [lane.deadline for lane in busy if lane.deadline is not None]
                wait_s = max(0.0, min(wakes) - time.monotonic()) if wakes else None
                if busy:
                    futures = [lane.future for lane in busy]
                    wait(futures, timeout=wait_s, return_when=FIRST_COMPLETED)
                else:
                    time.sleep(wait_s)
                for lane in busy:
                    if lane.future.done():
                        self._settle(lane)
                    elif lane.deadline is not None and lane.deadline <= time.monotonic():
                        lane.replace()  # the only way to stop a stalled worker
                        self._charge(lane, f"timed out after {self.timeout_s:g}s and was killed")
        finally:
            for lane in self.lanes:
                lane.pool.shutdown(wait=True)
        return True

    # ------------------------------------------------------------------
    def _feed(self, lane: _Lane) -> None:
        """Start the lane's next point, or else the longest queue's last one."""
        if lane.queue:
            index = lane.queue.popleft()
        else:
            longest = max(self.lanes, key=lambda other: len(other.queue))
            if not longest.queue:
                return
            index = longest.queue.pop()
        self._submit(lane, index)

    def _submit(self, lane: _Lane, index: int) -> None:
        point = self.points[index]
        try:
            lane.future = lane.pool.submit(_run_in_lane, point)
        except BrokenProcessPool:
            # The worker died while idle; replace it and submit once more.
            lane.replace()
            lane.future = lane.pool.submit(_run_in_lane, point)
        lane.index = index
        lane.deadline = None if self.timeout_s is None else time.monotonic() + self.timeout_s

    def _settle(self, lane: _Lane) -> None:
        try:
            result, timings = lane.future.result()
        except BrokenProcessPool:
            lane.replace()
            self._charge(lane, _DEATH_MESSAGE)
        except Exception as exc:  # noqa: BLE001 — classified, not hidden
            self._charge(lane, f"{type(exc).__name__}: {exc}")
        else:
            lane.future = None
            fastsim._TIMINGS.update(timings)
            self.record(lane.index, result, self.attempts.get(lane.index, 0) + 1)

    def _charge(self, lane: _Lane, message: str) -> None:
        """Charge the lane's point one run: retry it there once its backoff
        has passed, while the other lanes run on, or quarantine it."""
        index = lane.index
        lane.future = None
        attempts = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempts
        if attempts > self.retries:
            self.quarantine(index, message, attempts)
            return
        lane.retry_at = time.monotonic() + _backoff_s(attempts)


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    toolchain: Optional["Toolchain"] = None,
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

    * a point that fails deterministically — its schedule is infeasible,
      its configuration invalid, or a third-party strategy's artifact fails
      verification — is an **infeasible** ``SweepResult(error=...)`` row
      (see :func:`run_point`), stored like a measured one;
    * a point whose attempt *faults* — its worker dies, it raises, or it
      exceeds ``timeout_s`` — is retried up to ``retries`` times with
      exponential backoff, then **quarantined**: reported as a
      ``SweepResult(error=..., quarantined=True)`` row instead of aborting
      the grid;
    * ``jobs`` worker **lanes** run the points, each a single-worker
      process holding one point at a time, so a fault is charged to the
      point that caused it: a dead or stalled worker is replaced and the
      point retries on its own lane.  One worker death never loses
      completed or unrelated work, and never charges a neighbour;
    * ``store`` (a :class:`~repro.engine.store.ResultStore`) makes the grid
      incremental: with ``resume`` (the default) points whose content key
      already has an entry are served from disk, and every computed row is
      persisted atomically the moment it settles, so a killed run resumes
      from exactly where it died.  ``resume=False`` remeasures every point
      but still persists fresh rows.  Quarantined rows are never stored;
    * ``progress`` streams one :class:`SweepProgress` per settled point.

    ``jobs=None`` runs as many lanes as there are CPUs this process may
    run on (its affinity mask, where the platform has one).  Lanes take
    whole kernels, so each kernel's stream shapes are timed on one worker,
    and the lane timings each worker measures join this process's timing
    memo, so the lanes of a later sweep, forked from it, do not time those
    shapes again.

    ``toolchain`` (the session that compiles and simulates each point,
    default the process-wide one) runs every in-process point (serial jobs,
    single points, and the pool-creation fallback), so an isolated session
    never leaks compilations into the process-wide default cache; worker
    processes always run on their own process-wide session (warmed across
    the points each handles) — set ``REPRO_CACHE_DIR`` to share
    compilations between workers and across runs through the disk layer.
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

    def record(index: int, result: SweepResult, attempts: int) -> None:
        result.attempts = attempts
        settle(index, result, cached=False)

    def quarantine(index: int, message: str, attempts: int) -> None:
        settle(
            index,
            _unmeasured(points[index], message, attempts=attempts, quarantined=True),
            cached=False,
        )

    jobs = _resolve_jobs(jobs)
    ran_parallel = False
    if jobs > 1 and len(todo) > 1:
        runner = _Lanes(points, jobs, retries, timeout_s, record, quarantine)
        ran_parallel = runner.run(todo)
    if not ran_parallel:
        # Serial path: same retry/quarantine policy, minus what only exists
        # with processes (worker death, enforceable timeouts).
        for index in todo:
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = run_point(points[index], toolchain)
                except Exception as exc:  # noqa: BLE001 — retried, then reported
                    if attempts > retries:
                        quarantine(index, f"{type(exc).__name__}: {exc}", attempts)
                        break
                    time.sleep(_backoff_s(attempts))
                else:
                    record(index, result, attempts)
                    break
    return results


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def results_to_json(results: Sequence[SweepResult]) -> str:
    """Serialize sweep results as a JSON array of flat row objects."""
    return json.dumps([result.as_row() for result in results], indent=2)


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
