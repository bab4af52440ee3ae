"""Register-file model for the time-multiplexed FU.

The hardware register file is a RAM32M primitive addressed through a rotating
offset counter, so that the loads of data block *b + 1* can be written while
block *b* is still being read (the V1+ double-buffering).  The simulator
models it at the value level: entries are keyed by ``(block, value id)`` and
freed once their last in-stage reader has issued, and the model tracks the
peak number of live entries so the tests can confirm the kernel fits the
physical 32-entry RAM (and the 16-entry per-block frame on the rotating
variants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import SimulationError

Key = Tuple[Optional[int], int]  # (block index, value id); block None = constant


@dataclass
class RegisterFileModel:
    """Value-level register file with occupancy accounting."""

    name: str
    physical_depth: int = 32
    frame_capacity: int = 16

    def __post_init__(self) -> None:
        self._values: Dict[Key, int] = {}
        self._reads_left: Dict[Key, int] = {}
        self._constants: Dict[int, int] = {}
        self._high_water = 0
        self._per_block_high_water = 0

    # ------------------------------------------------------------------
    # constants (preloaded as part of the kernel configuration)
    # ------------------------------------------------------------------
    def preload_constant(self, value_id: int, value: int) -> None:
        self._constants[value_id] = value

    # ------------------------------------------------------------------
    # per-block values
    # ------------------------------------------------------------------
    def write(self, block: int, value_id: int, value: int, reads: int) -> None:
        """Write a loaded or written-back value with its expected read count.

        A value written with ``reads == 0`` (nothing in this stage reads it —
        e.g. a write-back kept only for symmetry) is dropped immediately.
        """
        if reads <= 0:
            return
        key = (block, value_id)
        self._values[key] = value
        self._reads_left[key] = reads
        self._update_occupancy()

    def has(self, block: int, value_id: int) -> bool:
        return (block, value_id) in self._values or value_id in self._constants

    def read(self, block: int, value_id: int) -> int:
        """Read a value without consuming it (operand fetch)."""
        if value_id in self._constants and (block, value_id) not in self._values:
            return self._constants[value_id]
        key = (block, value_id)
        if key not in self._values:
            raise SimulationError(
                f"register file {self.name!r}: value N{value_id} of block {block} "
                "is not resident"
            )
        return self._values[key]

    def consume(self, block: int, value_id: int) -> int:
        """Read a value and decrement its remaining read count."""
        if value_id in self._constants and (block, value_id) not in self._values:
            return self._constants[value_id]
        value = self.read(block, value_id)
        key = (block, value_id)
        self._reads_left[key] -= 1
        if self._reads_left[key] <= 0:
            del self._values[key]
            del self._reads_left[key]
        return value

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def _update_occupancy(self) -> None:
        live = len(self._values) + len(self._constants)
        self._high_water = max(self._high_water, live)
        blocks: Dict[Optional[int], int] = {}
        for block, _ in self._values:
            blocks[block] = blocks.get(block, 0) + 1
        if blocks:
            self._per_block_high_water = max(
                self._per_block_high_water, max(blocks.values()) + len(self._constants)
            )

    @property
    def high_water_mark(self) -> int:
        """Peak simultaneously-live entries (compare against ``physical_depth``)."""
        return self._high_water

    @property
    def per_block_high_water_mark(self) -> int:
        """Peak entries belonging to a single block (compare to ``frame_capacity``)."""
        return self._per_block_high_water

    def check_capacity(self, strict: bool = False) -> bool:
        """Whether observed occupancy fits the physical register file.

        With ``strict=True`` a violation raises :class:`SimulationError`
        instead of returning False.
        """
        fits = (
            self._high_water <= self.physical_depth
            and self._per_block_high_water <= self.frame_capacity
        )
        if strict and not fits:
            raise SimulationError(
                f"register file {self.name!r} overflows: peak {self._high_water} "
                f"entries (physical {self.physical_depth}), per-block peak "
                f"{self._per_block_high_water} (frame {self.frame_capacity})"
            )
        return fits
