"""Comparison helpers for the paper's headline claims.

The abstract claims "an average 70% reduction in II, with corresponding
improvements in throughput and latency"; Section V breaks this down as an
average 42% (71%) II reduction for V1 (V2) versus the [14] overlay and a 34%
(40%) reduction for V3 (V4) on the deep benchmarks.  The helpers here compute
exactly those aggregate quantities from per-kernel results so the benches can
print them next to the paper's numbers.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ..errors import ConfigurationError


def reduction(reference: float, new: float) -> float:
    """Fractional reduction of ``new`` relative to ``reference`` (0.42 = 42%)."""
    if reference <= 0:
        raise ConfigurationError("reference value must be positive")
    return 1.0 - new / reference


def average_reduction(
    reference_values: Mapping[str, float], new_values: Mapping[str, float]
) -> float:
    """Arithmetic mean of per-key reductions (the paper's aggregation) over
    every key present in both mappings; restrict the mappings to aggregate
    over fewer (e.g. only the depth > 8 benchmarks for V3/V4)."""
    keys = [k for k in reference_values if k in new_values]
    if not keys:
        raise ConfigurationError("no common keys to aggregate over")
    values = [reduction(reference_values[k], new_values[k]) for k in keys]
    return sum(values) / len(values)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (used for throughput/latency aggregate comparisons)."""
    values = list(values)
    if not values:
        raise ConfigurationError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

