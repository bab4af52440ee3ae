"""Ablation benches for the architectural choices the paper motivates.

Three ablations, matching the design decisions called out in DESIGN.md:

* **load/execute overlap** (the rotating register file) — compare the same
  kernel/schedule with and without the overlap, isolating the Eq. 1 -> Eq. 2
  improvement from everything else;
* **IWP depth** (V3 vs V4 vs V5) — how the internal write-back path length
  trades NOP padding (II) against achievable clock frequency;
* **fixed overlay depth** — sweep the fixed depth from 4 to 16 and watch the
  II / latency / resource trade-off that justifies the paper's choice of 8.
"""

import pytest

from repro.api import default_toolchain
from repro.kernels import TABLE3_BENCHMARKS, get_kernel
from repro.metrics.comparison import average_reduction, geometric_mean
from repro.metrics.tables import format_table
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V3, V4, V5
from repro.overlay.resources import overlay_fmax_mhz
from repro.schedule import analytic_ii, schedule_kernel
from repro.specs import OverlaySpec


# ---------------------------------------------------------------------------
# ablation 1: load/execute overlap
# ---------------------------------------------------------------------------
def _overlap_ablation():
    toolchain = default_toolchain()
    reference, overlapped = {}, {}
    for name in TABLE3_BENCHMARKS:
        dfg = get_kernel(name)
        reference[name] = toolchain.evaluate(dfg, OverlaySpec("baseline")).ii
        overlapped[name] = toolchain.evaluate(dfg, OverlaySpec("v1")).ii
    return reference, overlapped


def test_ablation_load_execute_overlap(benchmark, save_result):
    reference, overlapped = benchmark(_overlap_ablation)
    reduction = average_reduction(reference, overlapped)
    rows = [
        [name, reference[name], overlapped[name],
         f"{(1 - overlapped[name] / reference[name]) * 100:.0f}%"]
        for name in reference
    ]
    table = format_table(
        ["kernel", "II serial", "II overlapped", "reduction"],
        rows,
        title="Ablation: rotating register file (load/execute overlap)",
    )
    save_result("ablation_overlap", table + f"\naverage reduction: {reduction * 100:.1f}%")
    assert 0.35 <= reduction <= 0.50  # the paper's 42% average


# ---------------------------------------------------------------------------
# ablation 2: IWP depth
# ---------------------------------------------------------------------------
def _iwp_ablation():
    kernels = [n for n in TABLE3_BENCHMARKS if get_kernel(n).num_operations >= 25]
    rows = []
    for variant in (V3, V4, V5):
        for name in kernels:
            dfg = get_kernel(name)
            schedule = schedule_kernel(dfg, LinearOverlay.fixed(variant, 8))
            fmax = overlay_fmax_mhz(variant, 8)
            ii = analytic_ii(schedule)
            rows.append(
                [name, variant.paper_label, variant.iwp, schedule.total_nops, ii,
                 round(dfg.num_operations * fmax * 1e6 / ii / 1e9, 3)]
            )
    return rows


def test_ablation_iwp_depth(benchmark, save_result):
    rows = benchmark(_iwp_ablation)
    table = format_table(
        ["kernel", "FU", "IWP", "NOPs", "II", "GOPS"],
        rows,
        title="Ablation: internal write-back path length (V3/V4/V5, depth-8 overlay)",
    )
    save_result("ablation_iwp", table)

    by_variant = {}
    for name, label, iwp, nops, ii, gops in rows:
        by_variant.setdefault(label, []).append((nops, ii))
    # A shorter IWP never needs more NOPs and never worsens the II.
    for a, b in (("V3", "V4"), ("V4", "V5")):
        assert sum(n for n, _ in by_variant[a]) >= sum(n for n, _ in by_variant[b])
        assert sum(i for _, i in by_variant[a]) >= sum(i for _, i in by_variant[b])


# ---------------------------------------------------------------------------
# ablation 3: fixed overlay depth
# ---------------------------------------------------------------------------
def _depth_sweep():
    poly7 = get_kernel("poly7")
    rows = []
    for depth in (4, 6, 8, 10, 13, 16):
        overlay = LinearOverlay.fixed(V3, depth)
        schedule = schedule_kernel(poly7, overlay)
        ii = analytic_ii(schedule)
        fmax = overlay_fmax_mhz(V3, depth)
        rows.append(
            [depth, ii, schedule.total_nops,
             round(poly7.num_operations * fmax * 1e6 / ii / 1e9, 3),
             round((ii * depth + V3.alu_pipeline_depth - 1) * 1e3 / fmax, 1),
             depth * V3.dsp_blocks]
        )
    return rows


def test_ablation_fixed_depth_sweep(benchmark, save_result):
    rows = benchmark(_depth_sweep)
    table = format_table(
        ["depth", "II", "NOPs", "GOPS", "latency_ns", "DSPs"],
        rows,
        title="Ablation: fixed overlay depth for poly7 (V3 FU)",
    )
    save_result("ablation_fixed_depth", table)

    by_depth = {row[0]: row for row in rows}
    # More FUs monotonically improve (or preserve) the II...
    iis = [by_depth[d][1] for d in (4, 6, 8, 10, 13)]
    assert all(a >= b for a, b in zip(iis, iis[1:]))
    # ...but the deepest overlays stop paying off once depth exceeds the DFG
    # depth (13): II no longer improves while area keeps growing.
    assert by_depth[16][1] >= by_depth[13][1]
    assert by_depth[16][5] > by_depth[13][5]
