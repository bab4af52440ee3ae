"""Performance metrics, comparisons and report tables.

* :mod:`repro.metrics.performance` — throughput (GOPS), latency (ns), II and
  resource figures for a kernel/overlay pair, computed from the analytic
  models and (optionally) cross-checked with the cycle-accurate simulator.
* :mod:`repro.metrics.comparison` — reductions and geometric means
  used for the paper's headline claims (e.g. "average 70% reduction in II").
* :mod:`repro.metrics.models` — the pluggable :class:`PerformanceModel`
  family (analytic / warmup-aware / calibrated) and its registry: the
  simulation-free triage layer behind :meth:`repro.api.Toolchain.predict`
  and the auto-tuner (``docs/tuning.md``).
* :mod:`repro.metrics.tables` — plain-text renderings of Table I, Table III
  and the Fig. 5 / Fig. 6 data series.
"""

from .models import (
    ModelPrediction,
    PerformanceModel,
    get_model,
    model_entries,
    model_names,
    register_model,
    resolve_model,
    unregister_model,
)
from .performance import (
    PerformanceResult,
    analytic_performance,
    evaluate_kernel_all_overlays,
    latency_ns,
    throughput_gops,
)
from .comparison import (
    average_reduction,
    geometric_mean,
    reduction,
)
from .tables import (
    format_table,
    render_fig5_series,
    render_fig6_series,
    render_table1,
    render_table3,
)

__all__ = [
    "PerformanceModel",
    "ModelPrediction",
    "register_model",
    "unregister_model",
    "get_model",
    "resolve_model",
    "model_names",
    "model_entries",
    "PerformanceResult",
    "analytic_performance",
    "evaluate_kernel_all_overlays",
    "throughput_gops",
    "latency_ns",
    "reduction",
    "average_reduction",
    "geometric_mean",
    "format_table",
    "render_table1",
    "render_table3",
    "render_fig5_series",
    "render_fig6_series",
]
