"""Cold-vs-warm load benchmark of the overlay service (the PR 9 gate).

The workload is the service's steady state: every library kernel compiled
on a critical-path V1 overlay and a fixed-depth V3 overlay, requested
through the full protocol path (``InProcessClient`` → envelope decode →
tenant session → shared cache → artifact row), by several client threads
at once.  Cold means a fresh service whose shared cache is empty — every
point runs the mapping pipeline; warm means the same requests against the
populated cache — every point is a lookup plus protocol framing.

Three tests land in ``BENCH_results.json``:

* ``test_service_load_cold``  — one full pass against a fresh service;
* ``test_service_load_warm``  — ``WARM_ROUNDS`` passes on the warm cache;
* ``test_service_load_gate``  — measures both itself, asserts the
  acceptance criterion (**warm throughput ≥ 5x cold**), records
  cold/warm RPS and the service's own p50/p99 compile latencies, and
  writes the table to ``results/service_load.txt``.
"""

import threading
import time

from repro.kernels.library import kernel_names
from repro.service import InProcessClient, OverlayService
from repro.specs import OverlaySpec

#: The request grid: every library kernel on the two scheduler families.
VARIANTS = ("v1", "v3")

#: Client threads driving the service concurrently (like N CI jobs).
CLIENTS = 4

#: Warm passes per measurement (best-of), so lookup-fast warm passes are
#: measured above timer resolution.
WARM_ROUNDS = 5


def _request_grid():
    return [
        (kernel, variant) for kernel in kernel_names() for variant in VARIANTS
    ]


def _drive_pass(service):
    """One full grid pass fanned over CLIENTS threads; returns seconds."""
    grid = _request_grid()
    chunks = [grid[i::CLIENTS] for i in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)
    errors = []

    def worker(index):
        client = InProcessClient(service, tenant=f"load-{index}")
        barrier.wait()
        try:
            for kernel, variant in chunks[index]:
                row = client.compile(kernel, OverlaySpec(variant=variant))
                assert row["kernel"] == kernel
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not errors
    return elapsed


def _measure():
    """(cold_s, warm_s, requests_per_pass, stats_row) for one fresh service."""
    service = OverlayService(capacity=256, disk_dir=None)
    try:
        cold = _drive_pass(service)
        warm = min(_drive_pass(service) for _ in range(WARM_ROUNDS))
        snapshot = InProcessClient(service, tenant="probe").stats()
        return cold, warm, len(_request_grid()), snapshot
    finally:
        service.close()


def test_service_load_cold(benchmark):
    """One full request pass against a fresh (empty-cache) service."""

    def run():
        service = OverlayService(capacity=256, disk_dir=None)
        try:
            _drive_pass(service)
        finally:
            service.close()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_service_load_warm(benchmark):
    """Repeated request passes against a warm shared cache."""
    service = OverlayService(capacity=256, disk_dir=None)
    try:
        _drive_pass(service)  # populate
        benchmark.pedantic(lambda: _drive_pass(service), rounds=5, iterations=1)
    finally:
        service.close()


def test_service_load_gate(record_metric, save_result):
    """The acceptance gate: warm service throughput >= 5x cold."""
    cold_s, warm_s, requests, snapshot = _measure()
    cold_rps = requests / cold_s
    warm_rps = requests / warm_s
    speedup = warm_rps / cold_rps
    compile_row = snapshot["endpoints"]["compile"]
    cache_row = snapshot["cache"]

    record_metric("service_cold_rps", cold_rps)
    record_metric("service_warm_rps", warm_rps)
    record_metric("service_warm_speedup", speedup)
    record_metric("service_p50_ms", compile_row["p50_ms"])
    record_metric("service_p99_ms", compile_row["p99_ms"])

    lines = [
        "overlay service load "
        f"({requests} compile requests/pass, {CLIENTS} client threads)",
        f"  cold pass : {cold_s * 1e3:8.1f} ms  ({cold_rps:8.1f} req/s)",
        f"  warm pass : {warm_s * 1e3:8.1f} ms  ({warm_rps:8.1f} req/s)",
        f"  speedup   : {speedup:8.1f}x  (gate: >= 5x)",
        f"  latency   : p50 {compile_row['p50_ms']:.2f} ms, "
        f"p99 {compile_row['p99_ms']:.2f} ms over "
        f"{compile_row['requests']} requests",
        f"  cache     : {cache_row['entries']} entries, "
        f"{cache_row['hits']} hits, {cache_row['misses']} misses, "
        f"{cache_row['coalesced']} coalesced",
    ]
    save_result("service_load", "\n".join(lines))

    # One pipeline run per grid point, no matter how many threads raced.
    assert cache_row["misses"] == requests
    assert speedup >= 5.0, (
        f"warm service throughput only {speedup:.1f}x cold "
        f"({warm_rps:.0f} vs {cold_rps:.0f} req/s); the shared cache "
        "is not doing its job"
    )
