"""Overlay runtime management (the paper's virtualised-execution motivation).

The introduction motivates overlays with runtime manageability: "the FPGA
[can] be treated as a virtualized execution platform ... so that the hardware
can be viewed as just another software-managed task".  This package provides
that management layer on top of the models in the rest of the library:

* :class:`~repro.runtime.manager.OverlayRuntime` — owns one overlay instance
  (critical-path-sized or fixed-depth), loads kernels onto it (paying the
  partial-reconfiguration and/or instruction-load cost the context-switch
  model predicts), executes data streams through the cycle-accurate simulator
  and keeps per-kernel / per-switch accounting.
* :class:`~repro.runtime.manager.RuntimeStats` — the accumulated accounting
  (busy time, reconfiguration time, context switches, blocks processed) used
  by the multi-kernel example and the scheduling-policy bench.
"""

from .manager import KernelHandle, OverlayRuntime, RuntimeStats

__all__ = ["OverlayRuntime", "KernelHandle", "RuntimeStats"]
