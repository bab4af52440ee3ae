"""End-to-end benchmark of the overlay toolchain.

    python3 benchmarks/e2e/run.py --seed 1                        # every workload
    python3 benchmarks/e2e/run.py --workload sim-stream --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --trace 1              # per-layer split
    python3 benchmarks/e2e/run.py --seed 1 --smoke                # ~2% scale

This process and everything it starts run pinned to one CPU, and every
time is reported at reference speed (see ``clock.py``).  Each workload runs
in fresh child processes of this script: two that only set up (so
``setup_s`` is a median of three fresh starts, from the toolchain import to
the end of the workload's set-up) and one that sets up, measures for about
``--seconds`` and checks its outputs.  With ``--trace 1``
one untraced and one traced child each measure for half the time; the traced
one wraps every layer in spans, writes them to ``--trace-file`` and reports
the per-layer metrics.  Every metric is printed by name and unit, each run
is appended to ``results/history.jsonl``, and the last line of the output
is one JSON object.  The exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

E2E = Path(__file__).resolve().parent
ROOT = E2E.parents[1]
SRC = ROOT / "src"
RESULTS = E2E / "results"
WORK = E2E / ".work"

#: Fresh starts behind one ``setup_s`` (the median is reported).
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload invocation before children are killed.
BUDGET_S = 170.0


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None,
                        help="span output (default: results/trace-<workload>-s<seed>.jsonl; "
                        "with several workloads, -<workload> is added to the name)")
    parser.add_argument("--smoke", action="store_true", help="~2%% of each workload, for tests")
    parser.add_argument("--label", default=None, help="tag stored with the ledger entries")
    parser.add_argument("--ledger", default=str(RESULTS / "history.jsonl"))
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    import clock

    timer = clock.Clock()
    timer.calibrate(4)
    timer.calibrate_imports()
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    timer.calibrate(4)
    import spans
    import workloads

    name = args.workload[0]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        workdir=workdir,
        clock=timer,
        setup_start=setup_start,
        tracer=tracer,
        setup_only=args.child == "setup",
    )
    try:
        workloads.WORKLOADS[name](run)
        layers = traced_layers(run, tracer, Path(args.trace_file)) if tracer else {}
    except workloads.SetupOnly:
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.peak_rss_mb is None:
        import resource

        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "metrics": run.metrics,
        "details": run.details,
        "layers": layers,
        "peak_rss_mb": run.peak_rss_mb,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "gates": run.gates,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def traced_layers(run, tracer, trace_file: Path) -> Dict[str, Any]:
    """Write the run's spans and layer table; return the per-layer metrics."""
    import spans

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.unlink(missing_ok=True)
    tracer.dump(str(trace_file), "bench")
    if run.server_spans is not None:
        # The service's layers run in its own process; its spans replace ours.
        layer_spans, counts = spans.load(str(run.server_spans))["server"]
        with open(trace_file, "a", encoding="utf-8") as out, open(run.server_spans, encoding="utf-8") as src:
            shutil.copyfileobj(src, out)
        roots = {"service.handle"}
    else:
        layer_spans, counts = tracer.spans, run.window_counts
        roots = {"compile", "simulate", "sweep", "tune"}
    wall = run.window[1] - run.window[0] - run.clock.calibration_s(run.window)
    table, coverage, split = spans.layer_table(layer_spans, run.window, roots)
    metrics = spans.layer_metrics(table, coverage, counts, wall)
    for name in ("engine.cache.hit_pct", "engine.sweep.quarantined"):
        metrics[name] = run.layer_counts.get(name, 0.0)
    queue = sorted(
        end - start for _, name, start, end, _, _ in layer_spans
        if name == "service.queue" and run.window[0] <= start <= run.window[1]
    )
    if queue:
        import workloads

        run.detail("service.queue_wait_p50_ms", workloads.percentile(queue, 50) * 1e3, "ms")
        run.detail("service.queue_wait_p99_ms", workloads.percentile(queue, 99) * 1e3, "ms")
    with open(trace_file, "a", encoding="utf-8") as out:
        out.write(json.dumps({"table": table, "by_op": split, "window_s": wall, "coverage": coverage}) + "\n")
    return {"metrics": metrics, "table": table}


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    args: argparse.Namespace, workload: str, mode: str, seconds: float, deadline: float,
    trace_file: Optional[Path] = None,
) -> Tuple[Optional[float], Optional[Dict[str, Any]], int]:
    """Run one child; return its set-up time, its result and its exit code."""
    command = [
        sys.executable, str(E2E / "run.py"), "--child", mode, "--workload", workload,
        "--seed", str(args.seed), "--seconds", repr(seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace_file is not None:
        command += ["--trace", "1", "--trace-file", str(trace_file)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT))
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
    watchdog.start()
    setup_s = result = None
    try:
        for line in child.stdout:
            if line.startswith("SETUP_DONE "):
                setup_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        child.wait()
    finally:
        watchdog.cancel()
        child.stdout.close()
    return setup_s, result, child.returncode


def measure(args: argparse.Namespace, workload: str, seconds: float) -> Dict[str, Any]:
    """Run one workload's children and assemble its report."""
    deadline = time.monotonic() + BUDGET_S
    report: Dict[str, Any] = {"metrics": {}, "details": {}, "layers": {}, "gates": [],
                              "failures": [], "attempted": 0, "failed": 0}

    def absorb(result: Optional[Dict[str, Any]], code: int, what: str) -> bool:
        if result is None or code != 0:
            report["failed"] += 1
            report["failures"].append(f"{what} child exited with {code} and no result")
            return False
        for key in ("attempted", "failed"):
            report[key] += result[key]
        report["failures"] += result["failures"]
        report["gates"] += result["gates"]
        report["details"].update(result["details"])
        return True

    if args.trace:
        trace_file = RESULTS / f"trace-{workload}-s{args.seed}.jsonl"
        if args.trace_file:
            trace_file = Path(args.trace_file)
            if len(args.workload or ()) != 1:  # one file per workload
                trace_file = trace_file.with_name(f"{trace_file.stem}-{workload}{trace_file.suffix}")
        _, plain, code = run_child(args, workload, "measure", seconds / 2, deadline)
        absorb(plain, code, "untraced")
        _, traced, code = run_child(args, workload, "measure", seconds / 2, deadline, trace_file)
        if absorb(traced, code, "traced") and plain is not None:
            layers = traced["layers"]["metrics"]
            layers["trace.overhead_pct"] = 100.0 * (
                plain["metrics"]["rate_per_s"] / traced["metrics"]["rate_per_s"] - 1.0
            )
            report["metrics"] = layers
            report["layers"] = traced["layers"]["table"]
            report["trace_file"] = str(trace_file)
        return report

    setups: List[float] = []
    for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
        setup_s, _, code = run_child(args, workload, "setup", seconds, deadline)
        if setup_s is None or code != 0:
            report["failed"] += 1
            report["failures"].append(f"set-up child exited with {code}")
        else:
            setups.append(setup_s)
    setup_s, result, code = run_child(args, workload, "measure", seconds, deadline)
    if absorb(result, code, "measuring") and setup_s is not None:
        setups.append(setup_s)
        report["metrics"] = dict(result["metrics"], setup_s=statistics.median(setups),
                                 peak_rss_mb=result["peak_rss_mb"])
        report["details"]["setup_samples"] = (len(setups), "count")
    return report


def git_state() -> Tuple[str, Optional[bool]]:
    """HEAD and whether tracked files changed; unknown outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return head, bool(status.strip())


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def print_report(workload: str, args, seconds: float, report: Dict[str, Any], specs: List[Dict[str, Any]]) -> None:
    import workloads

    meaning = workloads.MEANING[workload]
    kind = "traced" if args.trace else "untraced"
    print(f"== {workload}: seed {args.seed}, {seconds:g} s, {kind}{', smoke' if args.smoke else ''} ==")
    for spec in specs:
        value = report["metrics"].get(spec["name"])
        shown = "MISSING" if value is None else f"{value:12.4f}"
        note = meaning.get(spec["name"], "") if not args.trace else ""
        print(f"  {spec['name']:<40} {shown} {spec['unit']:<6} {note}")
    for name, (value, unit) in sorted(report["details"].items()):
        print(f"  detail {name:<33} {value:12.4f} {unit}")
    if report.get("trace_file"):
        print(f"  spans and layer table: {report['trace_file']}")
    for name, ok, text in report["gates"]:
        print(f"  gate {'ok  ' if ok else 'FAIL'} {name}: {text}")
    for failure in report["failures"]:
        print(f"  failure: {failure}")
    rate = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  error_rate {rate:.6f} ({report['failed']} of {report['attempted']} attempted)")


def parent_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no toolchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import clock
    import workloads

    clock.pin_to_one_cpu()
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds or (2.0 if args.smoke else float(benchmark["run_seconds"]))
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    commit, dirty = git_state()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        report = measure(args, workload, seconds)
        missing = [s["name"] for s in specs if s["name"] not in report["metrics"]]
        if missing:
            report["failed"] += 1
            report["failures"].append(f"metrics not measured: {missing}")
        print_report(workload, args, seconds, report, specs)
        entry = {
            "commit": commit, "dirty": dirty, "label": args.label, "workload": workload,
            "seed": args.seed, "seconds": seconds, "smoke": args.smoke, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version(),
            "timestamp": time.time(), "metrics": report["metrics"],
            "details": {name: value for name, (value, _) in report["details"].items()},
            "layers": report["layers"], "attempted": report["attempted"], "failed": report["failed"],
        }
        Path(args.ledger).parent.mkdir(parents=True, exist_ok=True)
        with open(args.ledger, "a", encoding="utf-8") as ledger:
            ledger.write(json.dumps(entry) + "\n")
        correct = correct and report["failed"] == 0
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{workload}/"
        for spec in specs:
            if spec["name"] in report["metrics"]:
                metrics[prefix + spec["name"]] = {"value": report["metrics"][spec["name"]], "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
