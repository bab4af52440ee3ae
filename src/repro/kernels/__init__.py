"""Benchmark kernels and reference (golden) models.

The kernel set mirrors the paper's evaluation (Section V, Table III): the
'gradient' medical-imaging kernel used as the running example (Fig. 2), plus
chebyshev, mibench, qspline, sgfilter and poly5-poly8.  The original C
sources are not published, so the kernels here are reconstructed to match the
published DFG characteristics (I/O, operation count, depth); see
`repro.kernels.characteristics` for the published values and DESIGN.md for
the substitution rationale.
"""

from .library import (
    BENCHMARK_NAMES,
    KERNEL_C_SOURCES,
    TABLE3_BENCHMARKS,
    all_benchmarks,
    clear_kernel_cache,
    get_kernel,
    kernel_names,
)
from .characteristics import (
    PAPER_CHARACTERISTICS,
    PAPER_TABLE3_II,
    PaperCharacteristics,
)
from .reference import evaluate_dfg, reference_outputs, random_input_blocks
from .generators import dfg_from_level_profile, random_dfg

__all__ = [
    "BENCHMARK_NAMES",
    "KERNEL_C_SOURCES",
    "TABLE3_BENCHMARKS",
    "all_benchmarks",
    "clear_kernel_cache",
    "get_kernel",
    "kernel_names",
    "PAPER_CHARACTERISTICS",
    "PAPER_TABLE3_II",
    "PaperCharacteristics",
    "evaluate_dfg",
    "reference_outputs",
    "random_input_blocks",
    "dfg_from_level_profile",
    "random_dfg",
]
