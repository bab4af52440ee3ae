"""In-memory span tracing for the benchmark's traced runs.

The toolchain has no instrumentation of its own, so a traced run wraps the
entry point of every layer from the outside: :func:`install` replaces each
function or method *where its caller looks it up* (for example
``repro.engine.cache.schedule_kernel``, the name ``ScheduleCache`` calls)
with a wrapper that records a span.  Spans carry a name, start and end
(``time.perf_counter``, which is the system-wide monotonic clock on Linux,
so spans from the service process line up with the client's), the span
that caused them and the id of the benchmark operation they belong to.  They
stay in memory until the run ends.

A layer's self time is its span's duration minus the time its direct child
spans cover; children of one span run on the span's own thread, one after
another, so their durations add up without overlap.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

#: One finished span: (id, name, start, end, parent id or -1, op id).
Span = Tuple[int, str, float, float, int, int]

#: Layers whose self time is reported as a share of the measured wall time;
#: ``schedule`` is the sum of the per-strategy ``schedule.<name>`` spans.
SHARE_LAYERS = (
    "frontend",
    "api.resolve",
    "dfg.hash",
    "engine.cache",
    "schedule",
    "schedule.linear",
    "schedule.clustered",
    "schedule.modulo",
    "schedule.alap",
    "program.codegen",
    "program.image",
    "engine.warmup",
    "verify",
    "engine.fastsim",
    "engine.batchsim",
    "engine.batchsim.plan",
    "engine.batchsim.vector",
    "kernels.reference.value_plane",
    "kernels.reference.check",
    "kernels.reference.inputs",
    "sim.merge",
    "sim.cycle",
    "engine.sweep",
    "engine.store.get",
    "engine.store.put",
    "metrics.models.predict",
    "tune",
    "service.decode",
    "service.handle",
    "service.frame",
)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, new_op: bool = False):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent, op = stack[-1] if stack else (-1, -1)
        if new_op or op < 0:
            op = next(self._ops)
        span_id = next(self._ids)
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op))

    def op(self, name: str, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as the root span of a new op id."""
        return self.call(name, fn, args, kwargs, new_op=True)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span, for time spent waiting rather than calling."""
        self.spans.append((next(self._ids), name, start, end, -1, next(self._ops)))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- patching ------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable[..., str]],
        after: Optional[Callable[..., None]] = None,
        new_op: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(result, error, args, kwargs)`` runs once the call returns or
        raises, to record counts (hits, fallbacks, failures) at the boundary.
        ``name`` may be a callable of ``(args, kwargs)`` for spans whose
        name depends on the call, such as the scheduling strategy.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if after is None:
                return tracer.call(label, original, args, kwargs, new_op)
            try:
                result = tracer.call(label, original, args, kwargs, new_op)
            except Exception as error:
                after(None, error, args, kwargs)
                raise
            after(result, None, args, kwargs)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)

    # -- output --------------------------------------------------------
    def dump(self, path: str, source: str) -> None:
        """Append every span to ``path`` as JSON lines tagged with ``source``."""
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "source": source,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"source": source, "counts": dict(self.counts)}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every toolchain layer's entry point in a span (see the README)."""
    from repro import api
    from repro.engine import batchsim, cache, fastsim, store, sweep
    from repro.errors import CodegenError, InfeasibleScheduleError
    from repro.frontend import cache as frontend_cache
    from repro.kernels import reference
    from repro.sim import overlay

    # ``repro.tune`` is also the name of a function re-exported by ``repro``.
    tune_module = importlib.import_module("repro.tune")

    def on_error(counter: str, kind: type) -> Callable[..., None]:
        def after(result, error, args, kwargs) -> None:
            if isinstance(error, kind):
                tracer.count(counter)

        return after

    def diagnostics(report, error, args, kwargs) -> None:
        if report is not None:
            tracer.count("verify.diagnostics", len(report.diagnostics))

    def simulated(engine: str) -> Callable[..., None]:
        def after(result, error, args, kwargs) -> None:
            if result is not None:
                tracer.count(f"{engine}.blocks", result.num_blocks)
                tracer.count(f"{engine}.fast_forwards", len(args[0].fast_forward_events))

        return after

    def vector(rows, error, args, kwargs) -> None:
        if error is None and rows is None:
            tracer.count("engine.batchsim.vector_fallbacks")

    def store_get(row, error, args, kwargs) -> None:
        tracer.count("engine.store.hits" if row is not None else "engine.store.misses")

    def store_put(result, error, args, kwargs) -> None:
        tracer.count("engine.store.writes")

    patch = tracer.patch
    patch(api.Toolchain, "_resolve", "api.resolve")
    patch(frontend_cache.FrontendCache, "dfg", "frontend")
    patch(api, "dfg_fingerprint", "dfg.hash")
    patch(cache, "dfg_fingerprint", "dfg.hash")
    patch(store, "dfg_content_hash", "dfg.hash")
    for method in ("get_or_compile", "get_or_compile_keyed", "get_or_compile_source", "get_schedule"):
        patch(cache.ScheduleCache, method, "engine.cache")
    patch(cache.ShardedScheduleCache, "get_or_compile_source", "engine.cache")
    patch(
        cache,
        "schedule_kernel",
        lambda args, kwargs: "schedule." + kwargs.get("scheduler", "auto"),
        on_error("schedule.infeasible", InfeasibleScheduleError),
    )
    patch(cache, "generate_program", "program.codegen", on_error("program.regalloc_failures", CodegenError))
    patch(cache, "build_configuration_image", "program.image")
    patch(fastsim, "steady_state_warmup_bound", "engine.warmup")
    patch(api.Toolchain, "verify", "verify", diagnostics)

    patch(fastsim.FastSimulator, "run", "engine.fastsim", simulated("engine.fastsim"))
    patch(batchsim.BatchSimulator, "run", "engine.batchsim", simulated("engine.batchsim"))
    patch(batchsim, "plan_for", "engine.batchsim.plan")
    patch(batchsim.VectorBlockEvaluator, "evaluate", "engine.batchsim.vector", vector)
    for module in (fastsim, batchsim):
        patch(module, "_functional_outputs", "kernels.reference.value_plane")
    for module in (fastsim, batchsim, overlay):
        patch(module, "merge_lane_results", "sim.merge")
    patch(overlay.OverlaySimulator, "run", "sim.cycle")
    patch(reference, "reference_outputs", "kernels.reference.check")
    patch(reference, "random_input_blocks", "kernels.reference.inputs")

    patch(sweep, "run_sweep", "engine.sweep")
    patch(tune_module, "run_sweep", "engine.sweep")
    patch(store.ResultStore, "get", "engine.store.get", store_get)
    patch(store.ResultStore, "put", "engine.store.put", store_put)
    patch(api.Toolchain, "predict", "metrics.models.predict")
    patch(api.Toolchain, "tune", "tune")


def load(path: str) -> Dict[str, Tuple[List[Span], Dict[str, float]]]:
    """Read a span file back, grouped by source."""
    grouped: Dict[str, Tuple[List[Span], Dict[str, float]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans, counts = grouped.setdefault(row["source"], ([], {}))
            if "counts" in row:
                counts.update(row["counts"])
            else:
                spans.append(
                    (row["id"], row["name"], row["start"], row["end"], row["parent"], row["op"])
                )
    return grouped


def layer_table(
    spans: List[Span], window: Tuple[float, float], roots: Set[str]
) -> Tuple[Dict[str, Dict[str, float]], float, Dict[str, Dict[str, float]]]:
    """Per-layer ``calls``/``total_s``/``self_s``, coverage and per-op split.

    Only spans that start inside ``window`` count.  Coverage is the share of
    the time of root spans named in ``roots`` (or ``<root>.<anything>``: the
    benchmark's operations, or the service's requests) that their child
    spans account for.  The split maps each root span name to the self time
    of every layer inside operations of that name.
    """
    low, high = window
    spans = [span for span in spans if low <= span[2] <= high]
    prefixes = tuple(f"{root}." for root in roots)
    child_time: Dict[int, float] = defaultdict(float)
    op_name: Dict[int, str] = {}
    for _, name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            op_name[op] = name
    table: Dict[str, Dict[str, float]] = {}
    split: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root_time = covered = 0.0
    for span_id, name, start, end, parent, op in spans:
        duration = end - start
        own = max(0.0, duration - child_time[span_id])
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += own
        split[op_name.get(op, "?")][name] += own
        if parent < 0 and (name in roots or name.startswith(prefixes)):
            root_time += duration
            covered += min(duration, child_time[span_id])
    coverage = covered / root_time if root_time else 0.0
    return table, coverage, {op: dict(layers) for op, layers in split.items()}


def layer_metrics(
    table: Dict[str, Dict[str, float]], coverage: float, counts: Dict[str, float], wall_s: float
) -> Dict[str, float]:
    """The per-layer metrics one traced run reports (see BENCHMARK.json)."""

    def row(name: str, key: str) -> float:
        if name == "schedule":
            return sum(r[key] for n, r in table.items() if n.startswith("schedule."))
        return table.get(name, {}).get(key, 0.0)

    def pct(part: float, whole: float) -> float:
        return 100.0 * part / whole if whole else 0.0

    metrics = {f"{layer}.self_pct": pct(row(layer, "self_s"), wall_s) for layer in SHARE_LAYERS}
    fast_runs = row("engine.fastsim", "calls")
    metrics.update(
        {
            "service.queue_wait_pct": pct(row("service.queue", "total_s"), wall_s),
            "schedule.infeasible_pct": pct(counts.get("schedule.infeasible", 0), row("schedule", "calls")),
            "program.regalloc_failure_pct": pct(
                counts.get("program.regalloc_failures", 0), row("program.codegen", "calls")
            ),
            "verify.diagnostics": counts.get("verify.diagnostics", 0),
            "engine.fastsim.fast_forwards_per_run": (
                counts.get("engine.fastsim.fast_forwards", 0) / fast_runs if fast_runs else 0.0
            ),
            "engine.batchsim.vector_fallback_pct": pct(
                counts.get("engine.batchsim.vector_fallbacks", 0), row("engine.batchsim.vector", "calls")
            ),
            "engine.store.hit_pct": pct(
                counts.get("engine.store.hits", 0),
                counts.get("engine.store.hits", 0) + counts.get("engine.store.misses", 0),
            ),
            "trace.coverage_pct": 100.0 * coverage,
        }
    )
    return metrics
