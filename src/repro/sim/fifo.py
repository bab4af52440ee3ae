"""Distributed-RAM stream FIFO model.

The linear overlay's FUs are connected by simple FIFO channels built from
distributed RAM (Fig. 1).  The simulator models them as bounded queues of
``(block index, value id, value)`` tokens with occupancy tracking, so that
backpressure (a full FIFO stalling the upstream FU) and the high-water mark
(how deep the channels actually need to be) can be observed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..errors import SimulationError

#: A token flowing through a FIFO channel: (block index, value id, value).
Token = Tuple[int, int, int]


@dataclass
class StreamFIFO:
    """A bounded FIFO channel between two FUs (or at the overlay boundary).

    ``capacity <= 0`` means unbounded, which is used for the overlay's input
    channel (the stream interface is fed by DMA from main memory and is never
    the bottleneck in the paper's experiments).
    """

    name: str
    capacity: int = 32

    def __post_init__(self) -> None:
        self._queue: Deque[Token] = deque()
        self._high_water = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return self.capacity > 0 and len(self._queue) >= self.capacity

    @property
    def high_water_mark(self) -> int:
        """Maximum occupancy observed (how deep the channel must really be)."""
        return self._high_water

    # ------------------------------------------------------------------
    def push(self, token: Token) -> None:
        if self.is_full:
            raise SimulationError(
                f"FIFO {self.name!r} overflow (capacity {self.capacity}); "
                "the producer should have been back-pressured"
            )
        self._queue.append(token)
        self._high_water = max(self._high_water, len(self._queue))

    def peek(self) -> Optional[Token]:
        return self._queue[0] if self._queue else None

    def pop(self) -> Token:
        if not self._queue:
            raise SimulationError(f"FIFO {self.name!r} underflow")
        return self._queue.popleft()

