"""Shared helpers for the benchmark harnesses.

Every harness regenerates one table or figure of the paper.  Besides being
timed with pytest-benchmark, each harness writes the reproduced rows/series to
``benchmarks/results/<name>.txt`` so the artefacts survive output capturing
and can be diffed against EXPERIMENTS.md.

The session also emits machine-readable wall-clock timings to
``benchmarks/results/BENCH_results.json`` (bench name -> seconds for the call
phase of every ``bench_*`` test), so the performance trajectory across PRs is
diffable without parsing pytest-benchmark's console output.  Benches can also
record named metrics (speedup ratios, gate values) into the same file through
the ``record_metric`` fixture.
"""

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_TIMINGS_PATH = os.path.join(RESULTS_DIR, "BENCH_results.json")

_timings = {}
_metrics = {}


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Write a reproduced table/series to the results directory and echo it."""

    def _save(name: str, text: str) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


@pytest.fixture
def record_metric():
    """Record a named numeric metric into ``BENCH_results.json``.

    Metrics (e.g. the deep-sweep fast-forward speedup gate) merge into the same
    artefact as the wall-clock timings, so perf ratios across PRs are
    diffable alongside the raw durations.
    """

    def _record(name: str, value) -> None:
        _metrics[name] = round(float(value), 4)

    return _record


def _is_bench_nodeid(nodeid: str) -> bool:
    filename = os.path.basename(nodeid.split("::", 1)[0])
    return filename.startswith("bench_")


def pytest_runtest_logreport(report):
    """Collect call-phase durations of every benchmark test."""
    if report.when == "call" and _is_bench_nodeid(report.nodeid):
        name = report.nodeid.split("::", 1)[-1]
        _timings[name] = round(report.duration, 4)


def pytest_sessionfinish(session, exitstatus):
    """Persist the collected timings as a diffable JSON artefact.

    Timings merge into the existing file, so running a single bench updates
    its entry without discarding the rest of the record.
    """
    if not _timings and not _metrics:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    merged = {}
    if os.path.exists(BENCH_TIMINGS_PATH):
        try:
            with open(BENCH_TIMINGS_PATH, "r", encoding="utf-8") as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = {}
    merged.update(_timings)
    merged.update(_metrics)
    with open(BENCH_TIMINGS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(merged.items())), handle, indent=2, sort_keys=True)
        handle.write("\n")
