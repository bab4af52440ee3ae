"""Timing at a reference speed, for a host whose speed keeps changing.

The benchmark was built on a shared 2-vCPU virtual machine whose speed
swings by a quarter from one quarter-second to the next and drifts by a third
over minutes, with no steal time to show for it.  Each vCPU swings on its
own, so a calibration loop on one vCPU says nothing about the other; but on
the same vCPU, a fixed pure-Python loop run between the operations slows
down with them: over one-second windows the ratio of an operation's time to
the loop's time spread by 3.5%, where either time alone spread by 26-31%.

So the benchmark pins itself and every process it starts to one CPU
(:func:`pin_to_one_cpu`), runs one calibration unit every
:data:`EVERY_S` of measured work (:meth:`Clock.tick`), and reports each
measured interval *at reference speed*: its wall time times
:data:`REFERENCE_S` over the calibration unit's time around it
(:meth:`Clock.scaled`).  Units are timed in thread CPU time, so a unit that
shares the CPU with a sweep worker or the service still measures the CPU's
speed, not its share of it.  A faster toolchain reads faster; a slower or
busier host does not.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

#: Thread CPU seconds one calibration unit takes at reference speed.
REFERENCE_S = 0.001
#: Loop trips of one unit: about 1 ms on the machine the benchmark was built on.
UNIT_LOOPS = 4000
#: Wall time of measured work between two calibration units.
EVERY_S = 0.02
#: Units whose median gives the speed at one moment.
NEIGHBOURS = 6

Interval = List[float]  # [start, end] in time.perf_counter seconds


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to its lowest CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _unit() -> int:
    """Interpreter work on a table that stays in the CPU's caches.

    A unit that also walked a few MB of memory tracked the host no better
    once the measured work had pushed that memory out of the caches between
    units: it then timed memory latency rather than the CPU.
    """
    table = {}
    total = 0
    for i in range(UNIT_LOOPS):
        key = i & 255
        total += table.get(key, i) ^ (i >> 3)
        table[key] = total & 0xFFFF
    return total


class Clock:
    """Measured intervals, calibration units between them, and the scaling."""

    def __init__(self) -> None:
        self._mids: List[float] = []  # wall midpoint of each unit, ascending
        self._cpu: List[float] = []  # its thread CPU seconds
        self._last = float("-inf")

    def calibrate(self, units: int = 2) -> None:
        for _ in range(units):
            wall, cpu = time.perf_counter(), time.thread_time()
            _unit()
            cpu, end = time.thread_time() - cpu, time.perf_counter()
            self._mids.append((wall + end) / 2)
            self._cpu.append(cpu)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Calibrate when :data:`EVERY_S` has passed since the last units."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.calibrate()

    @contextmanager
    def timed(self) -> Iterator[Interval]:
        """Time one operation (exceptions included) as ``[start, end]``."""
        self.tick()
        interval = [time.perf_counter(), 0.0]
        try:
            yield interval
        finally:
            interval[1] = time.perf_counter()

    def calibrate_imports(self) -> None:
        """Tick before every module import, so that time spent importing
        the toolchain is scaled piece by piece like any other work."""
        clock = self

        class _Ticker:
            @staticmethod
            def find_spec(name, path=None, target=None):
                clock.tick()
                return None

        sys.meta_path.insert(0, _Ticker)

    def _speed(self, moment: float) -> float:
        """Median unit time of the :data:`NEIGHBOURS` units nearest ``moment``."""
        at = bisect.bisect_left(self._mids, moment)
        low, high = at, at
        while high - low < NEIGHBOURS and (low > 0 or high < len(self._mids)):
            if high >= len(self._mids) or (low > 0 and moment - self._mids[low - 1] < self._mids[high] - moment):
                low -= 1
            else:
                high += 1
        return statistics.median(self._cpu[low:high])

    def scaled(self, interval: Sequence[float]) -> float:
        """Seconds ``interval`` would have taken at reference speed.

        Units run inside the interval (by a callback, or between the
        operations of a longer one) split it into pieces, each scaled by the
        speed around it, and their own time is taken out again.
        """
        start, end = interval
        if not self._mids:
            raise RuntimeError("no calibration units recorded")
        first = bisect.bisect_left(self._mids, start)
        last = bisect.bisect_right(self._mids, end)
        edges = [start, *self._mids[first:last], end]
        total = sum(
            (right - left) * REFERENCE_S / self._speed((left + right) / 2)
            for left, right in zip(edges, edges[1:])
        )
        inside = sum(self._cpu[i] * REFERENCE_S / self._speed(self._mids[i]) for i in range(first, last))
        return max(0.0, total - inside)

    def scaled_all(self, intervals: Sequence[Sequence[float]]) -> List[float]:
        return [self.scaled(interval) for interval in intervals]

    def calibration_s(self, window: Tuple[float, float]) -> float:
        """Thread CPU seconds of the units run inside ``window``."""
        first = bisect.bisect_left(self._mids, window[0])
        last = bisect.bisect_right(self._mids, window[1])
        return sum(self._cpu[first:last])
