"""The four workloads of the end-to-end benchmark.

Each workload is a function of a :class:`Run`.  It builds its inputs from
the run's seed, sets up, calls :meth:`Run.setup_done`, measures whole rounds
of a fixed mix of work between :meth:`Run.start` and :meth:`Run.stop` (as
many as take ``run.seconds`` at reference speed), and then checks every
output against an oracle that does not share the code under test.  Every
operation is timed through ``run.clock`` and reported at reference speed
(see ``clock.py``).  Every workload reports the same end-to-end metric names
(``BENCHMARK.json``); what each name measures on each workload is in
:data:`MEANING` and in README.md.

Everything runs on one CPU (``clock.pin_to_one_cpu``): this process, at
most two sweep workers, and the service with its two worker threads, driven
by one closed-loop client connection.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import gen
from clock import Clock, Interval

E2E = Path(__file__).resolve().parent
SRC = E2E.parents[1] / "src"

VARIANTS = ("v1", "v2", "v3", "v4", "v5")
STRATEGIES = ("linear", "clustered", "modulo", "alap")

#: What each end-to-end metric measures on each workload.
MEANING: Dict[str, Dict[str, str]] = {
    "compile-cold": {
        "rate_per_s": "cold verified compiles per second",
        "rate2_per_s": "warm compiles (source-index hits) per second",
        "p50_ms": "cold verified compile latency, median",
        "tail_ms": "cold verified compile latency, p90",
    },
    "sim-stream": {
        "rate_per_s": "fast-engine simulated blocks per second, reference check included",
        "rate2_per_s": "batched-engine simulated blocks per second, reference check included",
        "p50_ms": "simulate call latency over both engines, median",
        "tail_ms": "simulate call latency over both engines, p95",
    },
    "sweep-store": {
        "rate_per_s": "cold-pass sweep points per second",
        "rate2_per_s": "resume-pass sweep points per second (all store reads)",
        "p50_ms": "Toolchain.tune latency on a session that compiled the candidates, median",
        "tail_ms": "Toolchain.tune latency on a session that compiled the candidates, p90",
    },
    "service-mixed": {
        "rate_per_s": "requests of the mix answered per second, one closed-loop client",
        "rate2_per_s": "simulated blocks per second over the simulate requests",
        "p50_ms": "cold compile request latency, median",
        "tail_ms": "request latency over the mix, p95",
    },
}


class SetupOnly(Exception):
    """Raised by :meth:`Run.setup_done` in a child that only times set-up."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Run:
    """One workload run: its inputs, its measurements and its verdicts."""

    seed: int
    seconds: float
    smoke: bool
    workdir: Path
    clock: Clock
    #: When set-up began (before the toolchain was imported).
    setup_start: float
    tracer: Optional[Any] = None
    setup_only: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer counts and ratios the workload measures itself.
    layer_counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    gates: List[Tuple[str, bool, str]] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    #: Span file of a traced service process, merged into the run's trace.
    server_spans: Optional[Path] = None
    peak_rss_mb: Optional[float] = None
    #: Tracer counts between :meth:`start` and :meth:`stop`.
    window_counts: Dict[str, float] = field(default_factory=dict)

    def setup_done(self) -> None:
        self.clock.calibrate(4)
        setup_s = self.clock.scaled([self.setup_start, time.perf_counter()])
        print(f"SETUP_DONE {setup_s!r}", flush=True)
        if self.setup_only:
            raise SetupOnly

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.counts.clear()
        self.clock.calibrate()
        self.window = (time.perf_counter(), 0.0)

    def stop(self) -> None:
        self.clock.calibrate()
        self.window = (self.window[0], time.perf_counter())
        if self.tracer is not None:
            self.window_counts = dict(self.tracer.counts)

    def rounds(self, round_s: float) -> int:
        """Rounds of ``round_s`` reference seconds that fill ``seconds``.

        The count depends on ``seconds`` alone, not on how fast the host
        ran, so every run of one commit measures the same work.
        """
        return 1 if self.smoke else max(1, round(self.seconds / round_s))

    def op(self, name: str, fn: Callable, *args, **kwargs):
        """Call one benchmark operation (a root span when traced)."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.op(name, fn, *args, **kwargs)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def gate(self, name: str, problems: Sequence[str], checked: str) -> None:
        """Record one correctness check; every problem counts as a failure."""
        self.gates.append((name, not problems, checked))
        for problem in problems:
            self.fail(f"{name}: {problem}")

    def detail(self, name: str, value: float, unit: str) -> None:
        self.details[name] = (value, unit)


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------
#: Kernels whose configuration images make up the run's digest.
DIGEST_KERNELS = 25
#: Warm passes over each kernel's feasible strategies, after its cold compiles.
WARM_PASSES = 20
#: Reference seconds of one round (30 kernels x 4 strategies, cold and warm).
COMPILE_ROUND_S = 1.0


def compile_cold(run: Run) -> None:
    """Seeded mini-C kernels, each compiled with ``check=True`` on one
    variant x every strategy into a fresh cache, then again warm.

    A round takes one block of the kernel stream (one kernel per op-count
    band) for each of baseline and V1-V5, so every round asks for about the
    same work.  Six fresh kernels per block of work, rather than one kernel
    on every variant, make the run's latencies depend less on which kernels
    the seed drew.
    """
    from repro import OverlaySpec, Toolchain
    from repro.engine.cache import ScheduleCache
    from repro.errors import CodegenError, InfeasibleScheduleError
    from repro.kernels.reference import evaluate_dfg
    from repro.sim.overlay import simulate_schedule

    variants = ("baseline",) + VARIANTS
    block = len(gen.OP_BANDS)
    if run.smoke:
        variants, block = variants[:2], 2
    specs = {v: [OverlaySpec(variant=v, scheduler=s) for s in STRATEGIES] for v in variants}
    kernels = gen.kernel_stream(run.seed)
    run.setup_done()

    cold: List[Interval] = []
    warm: List[Interval] = []
    outcomes: Counter = Counter()
    digest = hashlib.sha256()
    oracle_cases = []  # (generated kernel, compiled schedule), one per kernel
    hits = lookups = kernels_done = 0
    rounds = run.rounds(COMPILE_ROUND_S)
    run.start()
    for _ in range(rounds):
        batch = [(next(kernels), variant) for variant in variants for _ in range(block)]
        toolchain = Toolchain(cache=ScheduleCache(capacity=len(batch) * len(STRATEGIES)))
        for kernel, variant in batch:
            schedule = None
            feasible = []
            for spec in specs[variant]:
                with run.clock.timed() as interval:
                    try:
                        handle = run.op(
                            "compile", toolchain.compile, source=kernel.source, overlay=spec, check=True
                        )
                        outcome = "ok"
                    except InfeasibleScheduleError:
                        outcome, handle = "infeasible", None
                    except CodegenError:
                        outcome, handle = "codegen", None
                    except Exception as error:  # noqa: BLE001 - counted, reported
                        outcome, handle = "failed", None
                        run.fail(f"{kernel.name} {spec.variant}/{spec.scheduler}: {error!r}")
                cold.append(interval)
                outcomes[outcome] += 1
                if handle is not None:
                    feasible.append(spec)
                    if schedule is None:
                        schedule = handle.schedule
                    if kernels_done < DIGEST_KERNELS or run.smoke:
                        digest.update(f"{kernel.name}|{spec.variant}|{spec.scheduler}|".encode())
                        digest.update(handle.configuration.to_bytes())
            if schedule is not None:
                oracle_cases.append((kernel, schedule))
            kernels_done += 1
            # Warm passes right after each kernel's cold compiles, so that warm
            # compiles sample the host's speed over the whole round, as cold ones do.
            for _ in range(WARM_PASSES):
                for spec in feasible:
                    with run.clock.timed() as interval:
                        # Not a "compile" root span: a warm compile is Toolchain.compile's
                        # own lookup, which no inner span covers (trace.coverage_pct).
                        run.op("warm-compile", toolchain.compile, source=kernel.source, overlay=spec, check=True)
                    warm.append(interval)
        stats = toolchain.cache.stats
        hits += stats.lookups - stats.misses
        lookups += stats.lookups
    run.stop()
    run.attempted += len(cold) + len(warm)

    cold_s = run.clock.scaled_all(cold)
    warm_s = run.clock.scaled_all(warm)
    run.metrics.update(
        rate_per_s=len(cold_s) / sum(cold_s),
        rate2_per_s=len(warm_s) / sum(warm_s),
        p50_ms=percentile(cold_s, 50) * 1e3,
        # Which kernels a seed draws decides the high percentiles: above p90
        # the latencies climb a cliff of pathological (kernel, strategy)
        # pairs, p99 is 3x p95 and p95 1.4x p90.  p95 repeats within 1% for
        # one seed but spread by 8-11% over ten seeds, p99 by 10-14%; p90
        # (144 compiles beyond it) by 4-6%.  p95 and p99 are details.
        tail_ms=percentile(cold_s, 90) * 1e3,
    )
    run.detail("compile_p95_ms", percentile(cold_s, 95) * 1e3, "ms")
    run.detail("compile_p99_ms", percentile(cold_s, 99) * 1e3, "ms")
    run.detail("warm_compile_p50_us", percentile(warm_s, 50) * 1e6, "us")
    run.detail("rounds", rounds, "count")
    run.detail("kernels", kernels_done, "count")
    run.detail("compile_ops", len(cold), "count")
    run.detail("warm_ops", len(warm), "count")
    for outcome in ("ok", "infeasible", "codegen", "failed"):
        run.detail(f"outcome.{outcome}", outcomes[outcome], "count")
    run.layer_counts["engine.cache.hit_pct"] = 100.0 * hits / lookups if lookups else 0.0

    # Oracle: an 8-block cycle-accurate run of one artifact per kernel must
    # compute what the generator's own DFG computes.
    rng = random.Random(f"compile-oracle/{run.seed}")
    mismatched = []
    for kernel, schedule in oracle_cases:
        named = gen.named_stream(rng, kernel.dfg, 8)
        result = simulate_schedule(
            schedule, input_blocks=gen.blocks_for(schedule.dfg, named), engine="cycle", verify=False
        )
        if result.outputs != [evaluate_dfg(kernel.dfg, block) for block in named]:
            mismatched.append(kernel.name)
    run.gate("8-block cycle run equals the generator DFG", mismatched, f"{len(oracle_cases)} kernels")
    # Images of the first DIGEST_KERNELS kernels, which every full run
    # compiles; the digest must repeat for a seed (compare.py checks).
    run.detail("image_digest", int(digest.hexdigest()[:12], 16), "id")


# ---------------------------------------------------------------------------
# sim-stream
# ---------------------------------------------------------------------------
#: Stream lengths are log-uniform over this range (blocks).
STREAM_BLOCKS = (64, 4096)
#: Reference seconds of one round (90 points x 2 engines).
SIM_ROUND_S = 5.0
#: Blocks of the cycle-engine cross-check per checked point.
CROSS_CHECK_BLOCKS = 200
#: One point in this many gets the cycle cross-check (which one rotates
#: with the seed, so consecutive seeds cover every point).
CROSS_CHECK_EVERY = 6

_RESULT_FIELDS = (
    "outputs",
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "latency_cycles",
    "fu_stats",
    "fifo_high_water",
    "rf_high_water",
    "rf_per_block_high_water",
    "reference_outputs",
)


def _differences(a, b) -> List[str]:
    return [name for name in _RESULT_FIELDS if getattr(a, name) != getattr(b, name)]


def _shape(handle) -> str:
    if handle.overlay.variant.lanes > 1:
        return "dual_lane"
    return f"single_lane_fifo{handle.overlay.fifo_depth}"


def sim_stream(run: Run) -> None:
    """Library kernels x V1-V5 x FIFO depth {2, 32}, precompiled; each point
    streams seeded full-range inputs through the fast and batched engines.

    A round runs every point once on each engine.  Each kernel's ten points
    stream the ten lengths of a log-spaced ladder, rotated by one per
    kernel, so every (variant, FIFO depth) meets nine of the ten lengths and
    every round and seed asks for the same work; the seed picks the values.
    """
    from repro import OverlaySpec, Toolchain
    from repro.engine.cache import ScheduleCache
    from repro.kernels.library import kernel_names
    from repro.sim.overlay import simulate_schedule

    names = kernel_names()[:2] if run.smoke else kernel_names()
    variants = ("v1", "v2") if run.smoke else VARIANTS
    low, high = (16, 256) if run.smoke else STREAM_BLOCKS
    toolchain = Toolchain(cache=ScheduleCache(capacity=256))
    points = []
    for name in names:
        for variant in variants:
            for fifo_depth in (2, 32):
                run.clock.tick()
                handle = toolchain.compile(name, OverlaySpec(variant=variant, fifo_depth=fifo_depth))
                toolchain.cache.get_batch_plan(handle.key)
                points.append(handle)
    ladder = gen.length_ladder(len(variants) * 2, low, high)
    lengths = [ladder[(i + i // len(ladder)) % len(ladder)] for i in range(len(points))]
    run.setup_done()

    rng = random.Random(f"sim/{run.seed}")
    calls: List[Tuple[str, str, int, Interval]] = []  # engine, shape, blocks, interval
    unequal: List[str] = []
    rounds = run.rounds(SIM_ROUND_S)
    run.start()
    for _ in range(rounds):
        for position, (handle, length) in enumerate(zip(points, lengths)):
            stream = gen.input_stream(rng, handle.dfg.num_inputs, length)
            engines = ("fast", "batched") if position % 2 == 0 else ("batched", "fast")
            results = {}
            for engine in engines:
                with run.clock.timed() as interval:
                    results[engine] = run.op(
                        f"simulate.{engine}.{_shape(handle)}", simulate_schedule, handle.schedule,
                        input_blocks=stream, engine=engine, verify=True,
                    )
                calls.append((engine, _shape(handle), length, interval))
            run.attempted += 2
            fast, batched = results["fast"], results["batched"]
            differing = _differences(fast, batched)
            if differing or fast.matches_reference is not True:
                unequal.append(f"{handle.kernel_name}/{handle.overlay.name}: {differing or 'reference'}")
    run.stop()

    seconds = run.clock.scaled_all([interval for _, _, _, interval in calls])
    blocks: Counter = Counter()
    busy: Counter = Counter()
    for (engine, shape, length, _), spent in zip(calls, seconds):
        for key in (engine, f"{engine}.{shape}"):
            blocks[key] += length
            busy[key] += spent
    run.metrics.update(
        rate_per_s=blocks["fast"] / busy["fast"],
        rate2_per_s=blocks["batched"] / busy["batched"],
        p50_ms=percentile(seconds, 50) * 1e3,
        tail_ms=percentile(seconds, 95) * 1e3,
    )
    for key in sorted(blocks):
        if "." in key:
            run.detail(f"sim_{key.replace('.', '_')}_blocks_per_s", blocks[key] / busy[key], "1/s")
    run.detail("rounds", rounds, "count")
    run.detail("simulate_calls", len(calls), "count")
    run.detail("blocks", blocks["fast"] + blocks["batched"], "count")

    # Oracle: the cycle-accurate engine on a 200-block stream agrees with
    # both production engines on every result field.
    checked = [h for i, h in enumerate(points) if run.smoke or (i + run.seed) % CROSS_CHECK_EVERY == 0]
    differing = []
    for handle in checked:
        stream = gen.input_stream(rng, handle.dfg.num_inputs, CROSS_CHECK_BLOCKS)
        reference = simulate_schedule(handle.schedule, input_blocks=stream, engine="cycle")
        for engine in ("fast", "batched"):
            other = simulate_schedule(handle.schedule, input_blocks=stream, engine=engine)
            fields = _differences(reference, other)
            if fields or reference.matches_reference is not True:
                differing.append(f"{handle.kernel_name}/{handle.overlay.name}/{engine}: {fields}")
    run.gate("fast equals batched and the reference", unequal, f"{len(calls) // 2} runs")
    run.gate("cycle engine equals fast and batched", differing, f"{len(checked)} points x {CROSS_CHECK_BLOCKS} blocks")


# ---------------------------------------------------------------------------
# sweep-store
# ---------------------------------------------------------------------------
#: Resume passes per round (each reads every cold point from the store).
RESUME_PASSES = 20
#: Timed passes of the tunes per round, after one untimed pass.
TIMED_TUNE_PASSES = 2
#: Reference seconds of one round (cold, resume and grown passes, tunes).
SWEEP_ROUND_S = 7.5


def _row(result) -> Dict[str, Any]:
    row = result.as_row()
    row.pop("elapsed_s")
    return row


def sweep_store(run: Run) -> None:
    """Store-backed grids: a cold pass on a fresh store (library x V1-V5 x
    FIFO depth 8 x four strategies), resume passes that only read it, a grown
    grid adding FIFO depth 32 on V1 and V2 (new points among reads), and tunes
    on the same store.  Each round starts from a fresh store and session."""
    from repro import OverlaySpec, SimSpec, SweepSpec, Toolchain
    from repro.engine.cache import ScheduleCache
    from repro.kernels.library import kernel_names
    from repro.specs import TuneSpec

    names = tuple(kernel_names()[:1] if run.smoke else kernel_names())
    variants = ("v1", "v3") if run.smoke else VARIANTS
    strategies = STRATEGIES[:2] if run.smoke else STRATEGIES
    objectives = ("ii",) if run.smoke else ("ii", "gops", "latency")

    def specs(index: int):
        """Cold grid, grown grid and tune specs of one round's fresh store."""
        sim = SimSpec(engine="fast", num_blocks=32 if run.smoke else 64, seed=run.seed * 1000 + index)
        store_dir = str(run.workdir / f"store{index}")

        def grid(overlays: Sequence[Any]) -> SweepSpec:
            return SweepSpec(
                kernels=names, overlays=tuple(overlays), sim=sim, jobs=2,
                schedulers=strategies, store_dir=store_dir,
            )

        cold = [OverlaySpec(variant=v, fifo_depth=8) for v in variants]
        grown = cold + [OverlaySpec(variant=v, fifo_depth=32) for v in variants[:2]]
        # Every tune candidate is in the cold grid, so tunes triage with the
        # model and read their frontier from the store.
        tunes = [
            TuneSpec(
                kernel=name, variants=variants, fifo_depths=(8,), schedulers=strategies,
                objective=objective, sim=sim, jobs=2, store_dir=store_dir,
            )
            for name in names
            for objective in objectives
        ]
        return grid(cold), grid(grown), tunes

    run.setup_done()

    def sweep(toolchain, spec: SweepSpec, intervals: List[Interval]):
        # The parent calibrates as each point settles; on the one CPU this
        # interleaves the units with the workers' points.
        with run.clock.timed() as interval:
            rows = run.op("sweep", toolchain.sweep, spec, progress=lambda event: run.clock.tick())
        intervals.append(interval)
        run.attempted += len(rows)
        for row in rows:
            if row.quarantined:
                run.fail(f"{row.kernel}/{row.overlay_name}/{row.scheduler}: quarantined: {row.error}")
            elif row.error is None and row.matches_reference is not True:
                run.fail(f"{row.kernel}/{row.overlay_name}/{row.scheduler}: reference mismatch")
        return rows

    cold: List[Interval] = []
    resume: List[Interval] = []
    grown: List[Interval] = []
    tunes: List[Interval] = []
    cold_points = resume_points = quarantined = 0
    changed: List[str] = []  # cold rows a resume pass or grown grid did not reproduce
    rounds = run.rounds(SWEEP_ROUND_S)
    run.start()
    for index in range(rounds):
        cold_spec, grown_spec, tune_specs = specs(index)
        # A fresh session per round, so every round's tunes compile cold.
        toolchain = Toolchain(cache=ScheduleCache(capacity=1024))
        cold_rows = sweep(toolchain, cold_spec, cold)
        cold_points += len(cold_rows)
        expected = {(r.kernel, r.overlay_name, r.scheduler): _row(r) for r in cold_rows}
        reruns = [sweep(toolchain, cold_spec, resume) for _ in range(RESUME_PASSES)]
        resume_points += sum(len(rows) for rows in reruns)
        reruns.append(sweep(toolchain, grown_spec, grown))
        quarantined += sum(row.quarantined for row in reruns[-1])
        for pass_index, rows in enumerate(reruns):
            seen = {(r.kernel, r.overlay_name, r.scheduler): _row(r) for r in rows}
            changed += [
                f"round {index} pass {pass_index}: {'/'.join(key)}"
                for key, row in expected.items()
                if seen.get(key) != row
            ]
        # The first pass compiles each kernel's candidates into the session
        # and is not timed: what compiling costs, compile-cold measures.  The
        # timed passes are the model triage and the frontier's store reads.
        for tune_pass in range(1 + TIMED_TUNE_PASSES):
            for spec in tune_specs:
                with run.clock.timed() as interval:
                    try:
                        result = run.op("tune", toolchain.tune, spec=spec)
                    except Exception as error:  # noqa: BLE001 - counted, reported
                        run.fail(f"tune {spec.kernel}/{spec.objective}: {error!r}")
                        result = None
                if tune_pass:
                    tunes.append(interval)
                run.attempted += 1
                if result is not None and (
                    result.best_index is None or not result.candidates[result.best_index].simulated
                ):
                    run.fail(f"tune {spec.kernel}/{spec.objective}: no measured choice")
    run.stop()

    tune_s = run.clock.scaled_all(tunes)
    run.metrics.update(
        rate_per_s=cold_points / sum(run.clock.scaled_all(cold)),
        rate2_per_s=resume_points / sum(run.clock.scaled_all(resume)),
        p50_ms=percentile(tune_s, 50) * 1e3,
        tail_ms=percentile(tune_s, 90) * 1e3,
    )
    run.detail("grown_sweep_s", statistics.median(run.clock.scaled_all(grown)), "s")
    run.detail("rounds", rounds, "count")
    run.detail("cold_points", cold_points, "count")
    run.detail("tunes", len(tunes), "count")
    run.layer_counts["engine.sweep.quarantined"] = quarantined
    run.gate("resume and grown passes reproduce the cold rows", changed, f"{rounds} rounds")


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
#: Reference seconds of one round of the mix (180 requests).
SERVICE_ROUND_S = 1.35
#: Blocks per simulate request.
SIMULATE_BLOCKS = 256
#: The request kinds the service answers from its cache.
WARM_KINDS = ("compile", "evaluate", "verify")


def _start_server(run: Run, traced: bool) -> Tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2"]
    if traced:
        run.server_spans = run.workdir / "server-spans.jsonl"
        command = [sys.executable, str(E2E / "serve.py"), "--spans", str(run.server_spans), *serve]
    else:
        command = [sys.executable, "-m", "repro.cli", *serve]
    server = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    deadline = time.monotonic() + 60
    with selectors.DefaultSelector() as selector:
        selector.register(server.stdout, selectors.EVENT_READ)
        # Calibrate while the server starts on the same CPU.
        while not selector.select(timeout=0.02):
            run.clock.tick()
            if time.monotonic() > deadline:
                _stop_server(server)
                raise RuntimeError("service did not start within 60 s")
    line = server.stdout.readline().decode()
    if "listening on" not in line:
        _stop_server(server)
        raise RuntimeError(f"service failed to start: {line!r}")
    return server, int(line.strip().rsplit(":", 1)[1])


def _stop_server(server: subprocess.Popen) -> None:
    """Stop the service with SIGTERM (SIGINT may be ignored when inherited)."""
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _request(index: int, kind: str, key, cold_kernels, rng) -> Tuple[str, Any, bytes]:
    """One encoded request of the mix, with its kind and library key."""
    from repro.service.protocol import PROTOCOL_VERSION, encode_line
    from repro.specs import OverlaySpec, SimSpec, spec_to_wire

    if key is None:
        params: Dict[str, Any] = {
            "source": next(cold_kernels).source,
            "overlay": spec_to_wire(OverlaySpec(variant=rng.choice(VARIANTS))),
        }
    else:
        params = {"kernel": key[0], "overlay": spec_to_wire(OverlaySpec(variant=key[1]))}
    if kind == "simulate":
        params["sim"] = spec_to_wire(
            SimSpec(engine="fast", num_blocks=SIMULATE_BLOCKS, seed=rng.randrange(2 ** 31))
        )
    payload = {
        "op": "compile" if kind == "cold" else kind, "version": PROTOCOL_VERSION, "id": index,
        "tenant": "bench", "isolated": False, "params": params,
    }
    return kind, key, encode_line(payload)


def _round(index: int, combos, cold_kernels, rng) -> List[Tuple[str, Any, bytes]]:
    """Round ``index`` of the request mix, encoded, in a seeded order.

    Every round asks for the same work: each library (kernel, variant)
    compiled warm, evaluated and simulated once (25% each), 2/5 of them
    verified (10%, the next 2/5 in each round) and 3/5 as many fresh seeded
    mini-C kernels compiled cold (15%).
    """
    verified = len(combos) * 2 // 5
    kinds = {kind: list(combos) for kind in ("compile", "evaluate", "simulate")}
    kinds["verify"] = [combos[(index * verified + j) % len(combos)] for j in range(verified)]
    kinds["cold"] = [None] * (len(combos) * 3 // 5)
    placed = [(kind, key) for kind, keys in kinds.items() for key in keys]
    rng.shuffle(placed)
    return [_request(i, kind, key, cold_kernels, rng) for i, (kind, key) in enumerate(placed)]


class _Connection:
    """One client connection speaking the newline-delimited protocol."""

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(("127.0.0.1", port))
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.socket.makefile("rb")

    def send(self, data: bytes) -> None:
        self.socket.sendall(data)

    def receive(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return line

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


def _check_reply(run: Run, kind: str, key, reply: bytes, shas: Dict[Tuple[str, str], str], codes: Counter) -> None:
    """Count one reply's outcome and check it."""
    response = json.loads(reply)
    if not response.get("ok"):
        code = response["error"]["code"]
        codes[code] += 1
        if not (kind == "cold" and code in ("E_INFEASIBLE", "E_CODEGEN")):
            run.fail(f"{kind} {key}: {code} {response['error']['message']}")
        return
    result = response["result"]
    if kind == "simulate" and result["matches_reference"] is not True:
        run.fail(f"simulate {key}: reference mismatch")
    elif kind == "verify" and result["ok"] is not True:
        run.fail(f"verify {key}: {len(result.get('diagnostics', []))} diagnostics")
    elif kind == "compile" and result["configuration"]["sha256"] != shas[key]:
        run.fail(f"compile {key}: warm image differs from the cold one")


def service_mixed(run: Run) -> None:
    """A ``repro-overlay serve --workers 2`` process and one client that
    sends rounds of the mix request by request, each after the previous
    reply (closed loop).

    The requests the service answers from its cache take ~0.6 ms, most of
    it in the host's kernel (loopback TCP, thread hand-offs), whose cost
    shifted by a sixth between stretches of the same hour in ways the
    calibration loop does not follow; the bounded metrics therefore rest on
    the requests that compute (their medians are printed as details).
    """
    from repro.kernels.library import kernel_names
    from repro.service import ServiceClient
    from repro.specs import OverlaySpec

    traced = run.tracer is not None
    server, port = _start_server(run, traced)
    connection = None
    try:
        names = kernel_names()[:3] if run.smoke else kernel_names()
        combos = [(name, variant) for name in names for variant in VARIANTS]
        shas: Dict[Tuple[str, str], str] = {}
        with ServiceClient("127.0.0.1", port, tenant="bench") as client:
            for name, variant in combos:
                run.clock.tick()
                row = client.compile(name, OverlaySpec(variant=variant))
                shas[(name, variant)] = row["configuration"]["sha256"]
        rng = random.Random(f"service/{run.seed}")
        cold_kernels = gen.kernel_stream(f"service/{run.seed}")
        connection = _Connection(port)
        run.setup_done()

        requests: List[Tuple[str, Any, Interval, bytes]] = []
        rounds = run.rounds(SERVICE_ROUND_S)
        run.start()
        for index in range(rounds):
            for kind, key, line in _round(index, combos, cold_kernels, rng):
                with run.clock.timed() as interval:
                    connection.send(line)
                    reply = connection.receive()
                requests.append((kind, key, interval, reply))
        run.stop()
        with ServiceClient("127.0.0.1", port, tenant="bench") as client:
            stats = client.stats()
        run.peak_rss_mb = _vm_hwm_mb(server.pid)
    finally:
        if connection is not None:
            connection.close()
        _stop_server(server)

    codes: Counter = Counter()
    run.attempted += len(requests)
    for kind, key, _, reply in requests:
        _check_reply(run, kind, key, reply, shas, codes)
    latencies = run.clock.scaled_all([interval for _, _, interval, _ in requests])
    by_kind: Dict[str, List[float]] = {}
    for (kind, _, _, _), latency in zip(requests, latencies):
        by_kind.setdefault(kind, []).append(latency)
    run.metrics.update(
        rate_per_s=len(latencies) / sum(latencies),
        rate2_per_s=SIMULATE_BLOCKS * len(by_kind["simulate"]) / sum(by_kind["simulate"]),
        p50_ms=percentile(by_kind["cold"], 50) * 1e3,
        # p99 (18 requests a run beyond it) is decided by the few seeded
        # kernels that compile slowly, as on compile-cold; it is a detail.
        tail_ms=percentile(latencies, 95) * 1e3,
    )
    for kind, values in sorted(by_kind.items()):
        run.detail(f"service_{kind}_p50_ms", percentile(values, 50) * 1e3, "ms")
    warm = [latency for kind in WARM_KINDS for latency in by_kind[kind]]
    run.detail("service_warm_p50_ms", percentile(warm, 50) * 1e3, "ms")
    run.detail("service_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    run.detail("service_p99_ms", percentile(latencies, 99) * 1e3, "ms")
    run.detail("rounds", rounds, "count")
    run.detail("requests", len(requests), "count")
    for code, count in sorted(codes.items()):
        run.detail(f"service.errors.{code}", count, "count")
    cache = stats["cache"]
    for name in ("hits", "misses", "source_hits", "coalesced"):
        run.detail(f"engine.cache.{name}", cache[name], "count")
    run.layer_counts["engine.cache.hit_pct"] = 100.0 * cache["hit_rate"]


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "compile-cold": compile_cold,
    "sim-stream": sim_stream,
    "sweep-store": sweep_store,
    "service-mixed": service_mixed,
}
