"""Plain-text rendering of the paper's tables and figure data series.

The benchmark harnesses use these helpers to print, for every table and
figure of the paper, the rows/series this reproduction obtains — next to the
published values where they exist — so EXPERIMENTS.md can be regenerated
mechanically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..kernels.characteristics import PAPER_CHARACTERISTICS
from ..overlay.fu import FU_VARIANTS
from ..overlay.resources import OverlayResources


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}".rstrip("0").rstrip(".")
    return str(cell)


def render_table1() -> str:
    """Paper Table I: comparison of the FU designs."""
    rows = []
    for fu in FU_VARIANTS.values():
        rows.append(
            [
                fu.paper_label,
                fu.dsp_blocks,
                fu.luts,
                fu.flip_flops,
                int(fu.fmax_mhz),
                fu.iwp if fu.iwp is not None else "-",
            ]
        )
    return format_table(
        ["FU", "DSPs", "LUTs", "FFs", "Fmax", "IWP"],
        rows,
        title="Table I: Comparison of different FU designs (Zynq XC7Z020)",
    )


def render_table3(measured_ii: Mapping[str, Mapping[str, float]]) -> str:
    """Paper Table III: DFG characteristics and II per overlay.

    ``measured_ii`` maps kernel -> overlay label ("baseline", "v1", ...) -> II.
    The published values are printed next to the measured ones.
    """
    rows = []
    for kernel, by_overlay in measured_ii.items():
        paper = PAPER_CHARACTERISTICS.get(kernel)
        rows.append(
            [
                kernel,
                paper.io_signature if paper else "-",
                paper.num_operations if paper else "-",
                paper.depth if paper else "-",
                by_overlay.get("baseline", "-"),
                _with_paper(by_overlay.get("v1"), paper.ii_v1 if paper else None),
                _with_paper(by_overlay.get("v2"), paper.ii_v2 if paper else None),
                _with_paper(by_overlay.get("v3"), paper.ii_v3 if paper else None),
                _with_paper(by_overlay.get("v4"), paper.ii_v4 if paper else None),
            ]
        )
    return format_table(
        ["Benchmark", "I/O", "#Ops", "Depth", "II[14]", "IIv1", "IIv2", "IIv3", "IIv4"],
        rows,
        title="Table III: DFG characteristics and II of the benchmark set "
        "(measured, with paper values in parentheses)",
    )


def _with_paper(measured: Optional[float], paper: Optional[float]) -> str:
    if measured is None:
        return "-"
    text = _fmt(measured)
    if paper is not None:
        text += f" ({_fmt(paper)})"
    return text


def render_fig5_series(
    series: Mapping[str, Sequence[OverlayResources]],
) -> str:
    """Paper Fig. 5: overlay scalability (slices, DSPs, Fmax vs. size)."""
    rows = []
    for label, resources in series.items():
        for entry in resources:
            rows.append(
                [
                    label,
                    entry.depth,
                    entry.logic_slices,
                    entry.dsp_blocks,
                    round(entry.fmax_mhz, 1),
                    f"{entry.slice_utilisation * 100:.1f}%",
                ]
            )
    return format_table(
        ["overlay", "FUs", "slices", "DSPs", "fmax_MHz", "slice_util"],
        rows,
        title="Fig. 5: V1/V2 overlay scalability on Zynq XC7Z020",
    )


def render_fig6_series(
    results: Mapping[str, Mapping[str, object]],
) -> str:
    """Paper Fig. 6: throughput and latency per kernel per overlay.

    ``results`` maps kernel -> overlay label -> PerformanceResult (or any
    object with ``throughput_gops`` / ``latency_ns`` attributes).
    """
    rows = []
    for kernel, by_overlay in results.items():
        for label, result in by_overlay.items():
            rows.append(
                [
                    kernel,
                    label,
                    round(getattr(result, "ii"), 2),
                    round(getattr(result, "throughput_gops"), 3),
                    round(getattr(result, "latency_ns"), 1),
                ]
            )
    return format_table(
        ["kernel", "overlay", "II", "GOPS", "latency_ns"],
        rows,
        title="Fig. 6: Throughput and latency for the benchmark set",
    )
