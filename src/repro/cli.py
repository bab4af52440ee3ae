"""Command-line interface for the overlay tool flow.

``repro-overlay`` exposes the whole mapping flow from the shell::

    repro-overlay kernels [--json]                # list benchmark kernels
    repro-overlay variants [--json]               # list FU variants (Table I)
    repro-overlay schedulers [--json]             # list scheduling strategies
    repro-overlay models [--json]                 # list performance models
    repro-overlay tune --kernel qspline --objective ii --budget 8
    repro-overlay tune --kernel poly7 --model calibrated --store runs/tune
    repro-overlay map --kernel qspline --variant v3 --scheduler modulo
    repro-overlay map --kernel gradient --variant v1
    repro-overlay map --source my_kernel.c --variant v2   # your own mini-C file
    repro-overlay simulate --kernel qspline --variant v3 --depth 8 --blocks 16
    repro-overlay sweep --kernels all --variants v1,v2 --blocks 64 --json
    repro-overlay sweep --kernels all --variants all --store runs/grid \
                        --progress --output rows.json   # incremental + resumable
    repro-overlay check --kernels all --variants all   # static verification
    repro-overlay table3                          # regenerate Table III
    repro-overlay scalability --variant v1        # Fig. 5 data series
    repro-overlay dot --kernel qspline            # DFG in Graphviz DOT
    repro-overlay cache --stats                   # compile-cache statistics
    repro-overlay serve --port 7411               # overlay-as-a-service server
    repro-overlay stats --port 7411 [--json]      # live service statistics

Every sub-command prints plain text to stdout (``--json`` where offered
switches to machine-readable rows), so the CLI is also how the examples and
the EXPERIMENTS.md tables were produced.  ``map`` and ``simulate`` accept
either a library kernel (``--kernel``) or a mini-C source file
(``--source``); sources are compiled through the end-to-end compile cache
documented in ``docs/compiler.md``.

The overlay/simulation knobs are declared once by :func:`add_overlay_args`
and :func:`add_sim_args` and parse straight into the spec objects of
:mod:`repro.specs` (see ``docs/api.md``); every sub-command then drives the
:class:`repro.api.Toolchain` facade.  ``--depth`` defaults to ``None`` (auto
sizing) — the historical ``0`` sentinel is gone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import __version__
from .api import CompiledHandle, Toolchain, default_toolchain
from .errors import ReproError
from .kernels import get_kernel, kernel_names
from .kernels.library import kernel_rows
from .metrics.performance import evaluate_kernel_all_overlays
from .metrics.tables import render_fig5_series, render_table1, render_table3
from .overlay.fu import FU_VARIANTS
from .overlay.resources import scalability_sweep
from .schedule import analytic_ii
from .sim.trace import render_schedule_table
from .specs import DEFAULT_RETRIES, ENGINES, OverlaySpec, SimSpec, SweepSpec
from .visualize import clusters_to_dot, dfg_to_dot, schedule_listing


# ---------------------------------------------------------------------------
# shared argument groups <-> spec objects
# ---------------------------------------------------------------------------
def add_overlay_args(parser: argparse.ArgumentParser, default_variant: str = "v1") -> None:
    """Declare the overlay knobs (parsed by :func:`overlay_spec_from_args`)."""
    from .schedule.registry import scheduler_names

    parser.add_argument("--variant", default=default_variant, choices=list(FU_VARIANTS))
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        help="override the overlay depth (default: auto sizing — critical "
        "path for [14]/V1/V2, the paper's fixed depth 8 for V3-V5)",
    )
    parser.add_argument(
        "--scheduler",
        default="auto",
        choices=scheduler_names(),
        help="scheduling strategy (default: auto — the paper's policy "
        "dispatch; see 'repro-overlay schedulers' for the registry)",
    )


def add_sim_args(
    parser: argparse.ArgumentParser,
    default_engine: str = "cycle",
    trace: bool = False,
    verify_flag: bool = False,
) -> None:
    """Declare the simulation knobs (parsed by :func:`sim_spec_from_args`)."""
    parser.add_argument("--blocks", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine",
        default=default_engine,
        choices=ENGINES,
        help="simulation core: cycle-accurate reference, the fast event-driven "
        "engine, or the batched codegen engine",
    )
    if trace:
        parser.add_argument(
            "--trace", action="store_true", help="print a Table II style trace"
        )
        parser.add_argument("--trace-cycles", type=int, default=32)
    if verify_flag:
        parser.add_argument(
            "--no-verify", action="store_true", help="skip golden-reference verification"
        )


def overlay_spec_from_args(args: argparse.Namespace) -> OverlaySpec:
    """The :class:`OverlaySpec` an :func:`add_overlay_args` parse describes."""
    return OverlaySpec(
        variant=args.variant,
        depth=args.depth,
        scheduler=getattr(args, "scheduler", "auto"),
    )


def sim_spec_from_args(args: argparse.Namespace) -> SimSpec:
    """The :class:`SimSpec` an :func:`add_sim_args` parse describes."""
    return SimSpec(
        engine=args.engine,
        num_blocks=args.blocks,
        seed=args.seed,
        trace=bool(getattr(args, "trace", False)),
        verify=not getattr(args, "no_verify", False),
    )


def _compile_handle(
    toolchain: Toolchain, args: argparse.Namespace, allow_schedule_only: bool = True
) -> CompiledHandle:
    """Compile the kernel of a ``map``/``simulate`` invocation.

    ``--source FILE`` compiles a mini-C file through the full chain (the
    content-hashed frontend cache, then the session's source index);
    otherwise ``--kernel NAME`` picks a library kernel.  Kernels that
    schedule but exceed the register file / instruction memory come back as
    schedule-only handles (unless ``allow_schedule_only`` is off), so ``map``
    and ``simulate`` keep working for them.  The in-memory layer is empty in
    a one-shot CLI process, but the disk layer (``REPRO_CACHE_DIR``) makes
    repeated shell invocations skip the mapping flow entirely.
    """
    spec = overlay_spec_from_args(args)
    source_path = getattr(args, "source", None)
    if source_path and args.kernel:
        raise ReproError("--kernel and --source are mutually exclusive")
    if source_path:
        try:
            with open(source_path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            raise ReproError(f"cannot read --source file: {error}")
        return toolchain.compile(
            source=source, overlay=spec, allow_schedule_only=allow_schedule_only
        )
    if not args.kernel:
        raise ReproError("provide --kernel NAME or --source FILE")
    return toolchain.compile(args.kernel, spec, allow_schedule_only=allow_schedule_only)


def _print_json(rows) -> None:
    print(json.dumps(rows, indent=2))


def _cmd_kernels(args: argparse.Namespace) -> int:
    rows = kernel_rows()
    if args.json:
        _print_json(rows)
        return 0
    for row in rows:
        print(
            f"{row['name']:10s} I/O={row['io']:5s} ops={row['ops']:3d} "
            f"depth={row['depth']:2d}"
        )
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    if args.json:
        from dataclasses import asdict

        _print_json([asdict(variant) for variant in FU_VARIANTS.values()])
        return 0
    print(render_table1())
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    # --program surfaces the codegen error (register file / instruction
    # memory overflow) instead of printing a schedule with no program.
    handle = _compile_handle(default_toolchain(), args, allow_schedule_only=not args.program)
    print(schedule_listing(handle.schedule))
    print()
    print(f"analytic II: {analytic_ii(handle.schedule)}")
    if args.program:
        print()
        print(handle.program.listing())
        print(f"\ntotal instruction words: {handle.program.total_instruction_words}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    toolchain = default_toolchain()
    handle = _compile_handle(toolchain, args)
    sim = sim_spec_from_args(args)
    # Schedule-only handles (codegen overflow) simulate too: the simulator
    # runs from the schedule.
    result = toolchain.simulate(handle, sim)
    print(result.summary())
    measured = (
        "n/a (run too short)"
        if result.measured_ii is None
        else f"{result.measured_ii:.2f}"
    )
    print(f"analytic II: {analytic_ii(handle.schedule)}, measured II: {measured}")
    if sim.trace and result.trace is not None:
        print()
        print(
            render_schedule_table(
                result.trace, handle.overlay.depth, num_cycles=args.trace_cycles
            )
        )
    return 0 if result.matches_reference else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dfg = get_kernel(args.kernel)
    results = evaluate_kernel_all_overlays(dfg, simulate=args.simulate)
    for label, result in results.items():
        row = result.as_row()
        print(
            f"{label:9s} II={row['ii']:<6} fmax={row['fmax_mhz']:<6} "
            f"GOPS={row['gops']:<7} latency={row['latency_ns']:<8} "
            f"FUs={row['fus']} DSPs={row['dsp']} slices={row['slices']}"
        )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .kernels.library import TABLE3_BENCHMARKS

    measured = {}
    for name in TABLE3_BENCHMARKS:
        dfg = get_kernel(name)
        results = evaluate_kernel_all_overlays(dfg)
        measured[name] = {label: result.ii for label, result in results.items()}
    print(render_table3(measured))
    return 0


def _parse_name_list(text: str, universe: List[str], what: str) -> List[str]:
    if text.strip().lower() in ("all", "*"):
        return list(universe)
    names = [item.strip() for item in text.split(",") if item.strip()]
    unknown = [name for name in names if name not in universe]
    if unknown:
        raise ReproError(
            f"unknown {what} {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(universe)}"
        )
    return names


def _int_list(text: str, flag: str) -> List[int]:
    """A comma-separated integer list given to ``flag``."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise ReproError(
            f"{flag} must be a comma-separated list of integers, got {text!r}"
        )


def _depths_from_args(args: argparse.Namespace) -> List[Optional[int]]:
    """The ``--depths`` list; empty means auto sizing (``None``)."""
    if not args.depths:
        return [None]
    # A 0 entry keeps meaning auto sizing for shell compatibility.
    return [depth or None for depth in _int_list(args.depths, "--depths")]


def sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """The :class:`SweepSpec` a ``sweep`` invocation describes."""
    from .schedule.registry import scheduler_names

    kernels = _parse_name_list(args.kernels, kernel_names(), "kernel")
    variants = _parse_name_list(args.variants, list(FU_VARIANTS), "variant")
    depths = _depths_from_args(args)
    schedulers = None
    if getattr(args, "schedulers", None):
        schedulers = tuple(
            _parse_name_list(args.schedulers, scheduler_names(), "scheduler")
        )
    return SweepSpec(
        kernels=tuple(kernels),
        overlays=tuple(
            OverlaySpec(variant=variant, depth=depth)
            for variant in variants
            for depth in depths
        ),
        sim=sim_spec_from_args(args),
        jobs=args.jobs,
        schedulers=schedulers,
        retries=getattr(args, "retries", DEFAULT_RETRIES),
        timeout_s=getattr(args, "timeout", None),
        store_dir=getattr(args, "store", None),
        resume=getattr(args, "resume", True),
    )


def tune_spec_from_args(args: argparse.Namespace) -> "TuneSpec":
    """The :class:`~repro.specs.TuneSpec` a ``tune`` invocation describes."""
    from .schedule.registry import scheduler_names
    from .specs import TuneSpec

    variants = _parse_name_list(args.variants, list(FU_VARIANTS), "variant")
    depths = _depths_from_args(args)
    fifo_depths = _int_list(args.fifo_depths, "--fifo-depths") if args.fifo_depths else [32]
    schedulers = None
    if getattr(args, "schedulers", None):
        schedulers = tuple(
            _parse_name_list(args.schedulers, scheduler_names(), "scheduler")
        )
    return TuneSpec(
        kernel=args.kernel,
        variants=tuple(variants),
        depths=tuple(depths),
        fifo_depths=tuple(fifo_depths),
        schedulers=schedulers,
        model=args.model,
        objective=args.objective,
        budget=args.budget,
        sim=sim_spec_from_args(args),
        jobs=args.jobs,
        store_dir=getattr(args, "store", None),
        resume=getattr(args, "resume", True),
    )


def _print_progress(event) -> None:
    """One ``[k/N] kernel overlay status`` line per settled row, on stderr."""
    r = event.result
    status = "cached" if event.cached else (
        "quarantined" if r.quarantined else ("infeasible" if r.error else "ok")
    )
    print(
        f"[{event.completed}/{event.total}] {r.kernel} {r.overlay_name} {status}",
        file=sys.stderr,
        flush=True,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .engine.cache import write_atomic
    from .engine.sweep import render_sweep_table, results_to_json

    results = default_toolchain().sweep(
        sweep_spec_from_args(args), progress=_print_progress if args.progress else None
    )
    payload = results_to_json(results)
    if getattr(args, "output", None):
        write_atomic(args.output, payload + "\n")
    if args.json:
        print(payload)
    else:
        print(render_sweep_table(results))
    failures = [r for r in results if r.matches_reference is False or r.quarantined]
    return 1 if failures else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    spec = tune_spec_from_args(args)
    result = default_toolchain().tune(
        spec=spec, progress=_print_progress if args.progress else None
    )
    if args.json:
        print(result.to_json())
    else:
        fmt = "{:>4}  {:<9} {:>5} {:>4}  {:<9} {:>8} {:>8} {:>8} {:>8}  {}"
        print(fmt.format(
            "rank", "variant", "depth", "fifo", "scheduler",
            "pred II", "meas II", "GOPS", "II err", "status",
        ))
        for candidate in result.candidates:
            overlay = candidate.overlay
            if candidate.error is not None:
                status = "infeasible" if not candidate.simulated else "error"
            elif candidate.simulated:
                status = "chosen" if candidate is result.best else "measured"
            else:
                status = "triaged"
            num = lambda v, p=2: "-" if v is None else format(v, f".{p}f")
            print(fmt.format(
                candidate.rank,
                overlay.variant,
                "auto" if overlay.depth is None else overlay.depth,
                overlay.fifo_depth,
                overlay.scheduler,
                num(candidate.predicted_ii),
                num(candidate.measured_ii),
                num(candidate.measured_gops, 3),
                num(candidate.ii_error, 3),
                status,
            ))
        best = result.best
        if best is not None:
            measured = (
                f" (measured II {best.measured_ii:.2f})"
                if best.measured_ii is not None
                else " (by model prediction only)"
            )
            print(
                f"\nchosen: {spec.kernel} on {best.overlay.variant} "
                f"depth={'auto' if best.overlay.depth is None else best.overlay.depth} "
                f"fifo={best.overlay.fifo_depth} "
                f"scheduler={best.overlay.scheduler}{measured}"
            )
        else:
            print("\nno feasible configuration found")
        print(
            f"[{result.num_feasible} feasible / {len(result)} candidates, "
            f"{result.num_simulated} simulated with --budget {spec.budget}, "
            f"model {spec.model!r}, objective {spec.objective!r}]"
        )
    return 0 if result.best is not None else 1


def _cmd_models(args: argparse.Namespace) -> int:
    from .metrics.models import model_entries

    rows = [entry.as_row() for entry in model_entries()]
    if args.json:
        _print_json(rows)
        return 0
    for row in rows:
        marker = "*" if row["default"] else " "
        print(f"{marker} {row['name']:14s} {row['description']}")
    print("\n(* default; select with --model on tune, "
          "Toolchain.predict(model=...), or TuneSpec(model=...))")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import glob
    import os

    from .engine.cache import default_cache
    from .frontend.cache import default_frontend_cache

    compile_cache = default_cache()
    frontend_cache = default_frontend_cache()
    disk_entries = (
        sorted(glob.glob(os.path.join(compile_cache.disk_dir, "*.pkl")))
        if compile_cache.disk_dir and os.path.isdir(compile_cache.disk_dir)
        else []
    )
    if args.clear:
        # The in-memory layers are per-process; the disk layer is the state
        # that actually persists across CLI invocations, so clear both.
        compile_cache.clear()
        frontend_cache.clear()
        for path in disk_entries:
            try:
                os.unlink(path)
            except OSError as error:
                print(f"warning: could not remove {path}: {error}", file=sys.stderr)
        where = (
            f" and {len(disk_entries)} disk entries from {compile_cache.disk_dir}"
            if disk_entries
            else ""
        )
        print(f"in-memory compile and frontend caches cleared{where}")
        return 0
    stats = compile_cache.stats
    print("compiled-schedule cache:")
    print(f"  entries     : {len(compile_cache)} in memory (capacity "
          f"{compile_cache.capacity}), this process only")
    print(f"  hits        : {stats.hits} memory, {stats.disk_hits} disk, "
          f"{stats.source_hits} source fast path")
    print(f"  misses      : {stats.misses} ({stats.evictions} evictions)")
    print(f"  hit rate    : {stats.hit_rate * 100:.1f}%")
    if compile_cache.disk_dir:
        print(f"  disk layer  : {len(disk_entries)} entries in {compile_cache.disk_dir}")
    else:
        print("  disk layer  : disabled (set REPRO_CACHE_DIR to persist across runs)")
    print("frontend cache (this process only):")
    print(f"  {frontend_cache.stats.summary()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .errors import InfeasibleScheduleError
    from .schedule.registry import scheduler_names

    toolchain = default_toolchain()
    kernels = _parse_name_list(args.kernels, kernel_names(), "kernel")
    variants = _parse_name_list(args.variants, list(FU_VARIANTS), "variant")
    schedulers = _parse_name_list(args.schedulers, scheduler_names(), "scheduler")
    reports = []
    skipped = 0
    for kernel in kernels:
        for variant in variants:
            for scheduler in schedulers:
                spec = OverlaySpec(variant=variant, scheduler=scheduler)
                try:
                    handle = toolchain.compile(
                        kernel, spec, allow_schedule_only=True
                    )
                except InfeasibleScheduleError:
                    skipped += 1  # the strategy cannot map this point at all
                    continue
                reports.append(toolchain.verify(handle))
    failing = [report for report in reports if not report.ok]
    if args.json:
        _print_json([report.to_dict() for report in reports])
        return 1 if failing else 0
    for report in reports:
        if report.ok and not args.verbose:
            continue
        print(report.summary())
        for diagnostic in report.diagnostics:
            print(f"  {diagnostic}")
    print(
        f"checked {len(reports)} artifacts "
        f"({len(kernels)} kernels x {len(variants)} variants x "
        f"{len(schedulers)} schedulers, {skipped} infeasible points skipped): "
        f"{len(failing)} failing"
    )
    return 1 if failing else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import OverlayService

    # Checked here, not when the first isolated tenant builds its cache.
    capacities = (("--capacity", args.capacity), ("--isolated-capacity", args.isolated_capacity))
    for flag, capacity in capacities:
        if capacity < 1:
            raise ReproError(f"{flag} must be at least 1, got {capacity}")
    service = OverlayService(
        capacity=args.capacity,
        max_workers=args.workers,
        isolated_capacity=args.isolated_capacity,
        disk_dir=args.disk_dir,
    )
    service.serve_forever(host=args.host, port=args.port)
    return 0


def _cmd_service_stats(args: argparse.Namespace) -> int:
    from .service import ServiceClient
    from .service.stats import render_stats

    try:
        with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
            snapshot = client.stats()
    except OSError as error:
        raise ReproError(
            f"cannot reach overlay service at {args.host}:{args.port}: {error}"
        )
    if args.json:
        _print_json(snapshot)
    else:
        print(f"overlay service at {args.host}:{args.port} "
              f"(up {snapshot.get('uptime_s', 0.0):.0f}s)")
        print(render_stats(snapshot))
    return 0


def _cmd_schedulers(args: argparse.Namespace) -> int:
    from .schedule.registry import scheduler_strategies

    rows = [strategy.as_row() for strategy in scheduler_strategies()]
    if args.json:
        _print_json(rows)
        return 0
    for row in rows:
        marker = "*" if row["default"] else " "
        folds = "folds levels" if row["folds_levels"] else "one level/FU"
        print(f"{marker} {row['name']:10s} [{folds}] {row['description']}")
    print("\n(* default; select with --scheduler on map/simulate, "
          "--schedulers on sweep, or OverlaySpec(scheduler=...))")
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    series = {args.variant: scalability_sweep(args.variant, range(2, args.max_depth + 1, 2))}
    print(render_fig5_series(series))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    dfg = get_kernel(args.kernel)
    if args.clusters:
        spec = OverlaySpec(
            variant=args.variant,
            depth=args.depth if args.depth else 4,
            fixed=True,
            scheduler=getattr(args, "scheduler", "auto"),
        )
        handle = default_toolchain().compile(dfg, spec, allow_schedule_only=True)
        print(clusters_to_dot(dfg, handle.schedule.assignment))
    else:
        print(dfg_to_dot(dfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-overlay",
        description="Linear time-multiplexed FPGA overlay tool flow (DATE 2018 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernels = sub.add_parser("kernels", help="list benchmark kernels")
    p_kernels.add_argument("--json", action="store_true", help="emit JSON rows")
    p_kernels.set_defaults(func=_cmd_kernels)

    p_variants = sub.add_parser("variants", help="list FU variants (Table I)")
    p_variants.add_argument("--json", action="store_true", help="emit JSON rows")
    p_variants.set_defaults(func=_cmd_variants)

    p_map = sub.add_parser("map", help="schedule a kernel onto an overlay")
    p_map.add_argument("--kernel", default=None, choices=kernel_names())
    p_map.add_argument(
        "--source", default=None, metavar="FILE", help="mini-C source file to compile"
    )
    add_overlay_args(p_map)
    p_map.add_argument("--program", action="store_true", help="also print the FU programs")
    p_map.set_defaults(func=_cmd_map)

    p_sim = sub.add_parser("simulate", help="run the cycle-accurate simulator")
    p_sim.add_argument("--kernel", default=None, choices=kernel_names())
    p_sim.add_argument(
        "--source", default=None, metavar="FILE", help="mini-C source file to compile"
    )
    add_overlay_args(p_sim)
    add_sim_args(p_sim, default_engine="cycle", trace=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", help="compile+simulate a kernels x variants grid (parallel)"
    )
    p_sweep.add_argument(
        "--kernels", default="all", help="comma-separated kernel names, or 'all'"
    )
    p_sweep.add_argument(
        "--variants", default="v1,v2", help="comma-separated FU variants, or 'all'"
    )
    p_sweep.add_argument(
        "--depths",
        default="",
        help="comma-separated overlay depths (empty = auto per kernel/variant)",
    )
    p_sweep.add_argument(
        "--schedulers",
        "--scheduler",
        default="",
        help="comma-separated scheduling strategies, or 'all' — adds a "
        "scheduler axis to the grid (empty = the default auto strategy)",
    )
    add_sim_args(p_sweep, default_engine="fast", verify_flag=True)
    p_sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: the CPUs this process may run on)",
    )
    p_sweep.add_argument("--json", action="store_true", help="emit JSON rows")
    p_sweep.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persist each point's result in DIR (content-keyed; makes the "
        "grid incremental and a killed run resumable — see docs/sweeps.md)",
    )
    p_sweep.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --store, reuse stored results instead of re-running "
        "(--no-resume re-measures everything but still refreshes the store)",
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        metavar="N",
        help="per-point retry budget before a faulting point is quarantined "
        f"as an error row (default: {DEFAULT_RETRIES})",
    )
    p_sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point wall-clock budget in seconds; a stalled point is "
        "killed, retried, and eventually quarantined (default: none)",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream one '[k/N] kernel overlay status' line per finished "
        "point to stderr",
    )
    p_sweep.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON rows to FILE (atomic temp+rename write)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    from .metrics.models import model_names
    from .specs import OBJECTIVES

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune a kernel's overlay/scheduler config (analytic "
        "triage + simulate the frontier)",
    )
    p_tune.add_argument("--kernel", required=True, choices=kernel_names())
    p_tune.add_argument(
        "--variants", default="v1,v2,v3,v4,v5",
        help="comma-separated FU variants, or 'all'",
    )
    p_tune.add_argument(
        "--depths", default="",
        help="comma-separated overlay depths (empty = auto per variant; 0 = auto)",
    )
    p_tune.add_argument(
        "--fifo-depths", default="32", metavar="N,N",
        help="comma-separated FIFO depths (default: 32)",
    )
    p_tune.add_argument(
        "--schedulers", "--scheduler", default="",
        help="comma-separated scheduling strategies, or 'all' (empty = every "
        "registered strategy except the duplicate-producing 'auto')",
    )
    p_tune.add_argument(
        "--model", default="analytic", choices=model_names(),
        help="performance model that triages the candidates (see "
        "'repro-overlay models')",
    )
    p_tune.add_argument(
        "--objective", default="ii", choices=OBJECTIVES,
        help="what to optimise: minimise II, maximise GOPS, or minimise latency",
    )
    p_tune.add_argument(
        "--budget", type=int, default=8, metavar="N",
        help="how many top-ranked candidates to actually simulate (default: 8)",
    )
    add_sim_args(p_tune, default_engine="fast", verify_flag=True)
    p_tune.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the frontier simulation "
        "(default: the CPUs this process may run on)",
    )
    p_tune.add_argument("--json", action="store_true", help="emit the TuneResult as JSON")
    p_tune.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist frontier measurements in DIR (repeat tunes re-simulate "
        "nothing; accumulated rows also fit the 'calibrated' model)",
    )
    p_tune.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="with --store, reuse stored measurements instead of re-running",
    )
    p_tune.add_argument(
        "--progress", action="store_true",
        help="stream one line per simulated frontier point to stderr",
    )
    p_tune.set_defaults(func=_cmd_tune)

    p_eval = sub.add_parser("evaluate", help="evaluate a kernel on every overlay variant")
    p_eval.add_argument("--kernel", required=True, choices=kernel_names())
    p_eval.add_argument("--simulate", action="store_true")
    p_eval.set_defaults(func=_cmd_evaluate)

    sub.add_parser("table3", help="regenerate the paper's Table III").set_defaults(
        func=_cmd_table3
    )

    p_check = sub.add_parser(
        "check",
        help="statically verify compiled artifacts (linter over the "
        "kernels x variants x schedulers grid; see docs/verify.md)",
    )
    p_check.add_argument(
        "--kernels", default="all", help="comma-separated kernel names, or 'all'"
    )
    p_check.add_argument(
        "--variants", default="all", help="comma-separated FU variants, or 'all'"
    )
    p_check.add_argument(
        "--schedulers",
        "--scheduler",
        default="all",
        help="comma-separated scheduling strategies, or 'all'",
    )
    p_check.add_argument("--json", action="store_true", help="emit the reports as JSON")
    p_check.add_argument(
        "--verbose",
        action="store_true",
        help="also print one summary line per passing artifact",
    )
    p_check.set_defaults(func=_cmd_check)

    p_scheds = sub.add_parser(
        "schedulers", help="list the registered scheduling strategies"
    )
    p_scheds.add_argument("--json", action="store_true", help="emit JSON rows")
    p_scheds.set_defaults(func=_cmd_schedulers)

    p_models = sub.add_parser(
        "models", help="list performance models (the tuner's triage layer)"
    )
    p_models.add_argument("--json", action="store_true", help="emit JSON rows")
    p_models.set_defaults(func=_cmd_models)

    p_scale = sub.add_parser("scalability", help="Fig. 5 resource/Fmax sweep")
    p_scale.add_argument("--variant", default="v1", choices=list(FU_VARIANTS))
    p_scale.add_argument("--max-depth", type=int, default=16)
    p_scale.set_defaults(func=_cmd_scalability)

    p_cache = sub.add_parser("cache", help="inspect or clear the compile caches")
    p_cache.add_argument(
        "--stats", action="store_true", help="print cache statistics (the default)"
    )
    p_cache.add_argument(
        "--clear",
        action="store_true",
        help="clear the in-memory caches and the REPRO_CACHE_DIR disk entries",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="run the overlay compile/simulate service (newline-JSON over "
        "TCP, multi-tenant; see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7411)
    p_serve.add_argument(
        "--capacity", type=int, default=512,
        help="shared compile-cache capacity in entries (default: 512)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool width for request bodies (default: CPU-based)",
    )
    p_serve.add_argument(
        "--isolated-capacity", type=int, default=128,
        help="private cache capacity for each isolated tenant (default: 128)",
    )
    p_serve.add_argument(
        "--disk-dir", default=None, metavar="DIR",
        help="persist shared-cache artifacts in DIR (atomic temp+rename "
        "writes; restarts start warm)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_sstats = sub.add_parser(
        "stats", help="query a running service's request/cache statistics"
    )
    p_sstats.add_argument("--host", default="127.0.0.1")
    p_sstats.add_argument("--port", type=int, default=7411)
    p_sstats.add_argument("--timeout", type=float, default=10.0)
    p_sstats.add_argument("--json", action="store_true", help="emit the raw snapshot")
    p_sstats.set_defaults(func=_cmd_service_stats)

    p_dot = sub.add_parser("dot", help="emit a Graphviz DOT drawing of a kernel DFG")
    p_dot.add_argument("--kernel", required=True, choices=kernel_names())
    p_dot.add_argument("--clusters", action="store_true", help="mark scheduling clusters")
    add_overlay_args(p_dot, default_variant="v3")
    p_dot.set_defaults(func=_cmd_dot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
