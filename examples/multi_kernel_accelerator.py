#!/usr/bin/env python3
"""Choosing an overlay for a multi-kernel streaming accelerator.

The paper's motivation (Sections I and V): when an application needs several
compute kernels accelerated, a critical-path-sized overlay must be partially
reconfigured every time the kernel changes (milliseconds over the PCAP),
whereas a fixed-depth write-back overlay only swaps instruction memories
(microseconds).  This example quantifies that trade-off for a workload that
rotates through four kernels of the benchmark set, and reports:

* per-kernel throughput and latency on a per-kernel V1 overlay versus a
  single fixed depth-8 V3 overlay,
* the hardware context-switch time each policy pays on every kernel change,
* the total time to process a batch of data blocks per kernel, including the
  context switches — the number a system designer actually cares about.

The APIs used here (the `Toolchain` session, the context-switch model, the
resource/Fmax models) are mapped in docs/api.md and docs/architecture.md,
and the compile path is documented in docs/compiler.md.

Run with:  python examples/multi_kernel_accelerator.py
"""

from repro import OverlaySpec, Toolchain
from repro.metrics.tables import format_table
from repro.overlay.context_switch import context_switch_time_s
from repro.overlay.resources import overlay_fmax_mhz

WORKLOAD = ["gradient", "qspline", "poly6", "sgfilter"]
BLOCKS_PER_KERNEL = 2000

TOOLCHAIN = Toolchain()


def policy_rows(policy_name, overlay_spec):
    """Evaluate one overlay policy (an OverlaySpec) across the workload."""
    rows = []
    total_time_us = 0.0
    previous_depth = None
    for kernel in WORKLOAD:
        handle = TOOLCHAIN.compile(kernel, overlay_spec)
        performance = TOOLCHAIN.evaluate(handle)
        # Hardware context switch when this kernel replaces the previous one.
        switch = context_switch_time_s(
            handle.overlay,
            instruction_words=handle.configuration.total_words,
            kernel_depth=previous_depth,
        )
        fmax_hz = overlay_fmax_mhz(handle.overlay.variant, handle.overlay.depth) * 1e6
        compute_time_s = BLOCKS_PER_KERNEL * performance.ii / fmax_hz
        total_s = compute_time_s + switch.total_time_s
        total_time_us += total_s * 1e6
        rows.append(
            [
                kernel,
                handle.overlay.name,
                performance.ii,
                round(performance.throughput_gops, 2),
                f"{switch.total_time_s * 1e6:.2f}",
                f"{compute_time_s * 1e6:.1f}",
                f"{total_s * 1e6:.1f}",
            ]
        )
        previous_depth = performance.kernel_depth
    table = format_table(
        ["kernel", "overlay", "II", "GOPS", "switch_us", "compute_us", "total_us"],
        rows,
        title=f"policy: {policy_name}",
    )
    return table, total_time_us


def main() -> None:
    print(
        f"Workload: {', '.join(WORKLOAD)} — {BLOCKS_PER_KERNEL} data blocks per "
        "kernel, kernels executed round-robin.\n"
    )

    v1_table, v1_total = policy_rows(
        "per-kernel V1 overlay (partial reconfiguration between kernels)",
        OverlaySpec("v1"),
    )
    v3_table, v3_total = policy_rows(
        "single fixed depth-8 V3 overlay (instruction-memory update only)",
        OverlaySpec("v3", depth=8),
    )

    print(v1_table)
    print()
    print(v3_table)
    print()
    print(f"Total time, V1 policy : {v1_total:10.1f} us")
    print(f"Total time, V3 policy : {v3_total:10.1f} us")
    print(
        f"\nThe fixed-depth overlay finishes the rotating workload "
        f"{v1_total / v3_total:.2f}x faster, despite its slightly higher II on "
        "the deep kernels, because it never pays the PCAP reconfiguration "
        "(the paper's ~2900x context-switch reduction)."
    )


if __name__ == "__main__":
    main()
