"""Configuration images: the bytes the ARM core writes to reprogram a kernel.

On the Zynq platform the paper targets, the ARM processor loads a kernel onto
the (already configured) overlay by writing each FU's instruction memory and
constant registers over AXI, then starting the stream DMA.  The size of that
write is what makes the fixed-depth overlays' hardware context switch ~2900x
faster than partially reconfiguring the fabric.

A :class:`ConfigurationImage` lays the words out as:

* a small header per FU (FU index, instruction count, constant count),
* the FU's 32-bit instruction words,
* the FU's constant initialisation words (register address + value pairs).

The byte serialisation round-trips (``to_bytes`` / ``from_bytes``) and its
size feeds :mod:`repro.overlay.context_switch`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import EncodingError
from ..schedule.types import OverlaySchedule
from .codegen import OverlayProgram, generate_program

_HEADER = struct.Struct("<HHH")  # fu index, #instructions, #constants
_WORD = struct.Struct("<I")
_CONST = struct.Struct("<Ii")  # register address, signed value
_MAGIC = 0x4F564C59  # "OVLY"


@dataclass
class ConfigurationImage:
    """A serialisable kernel configuration for one overlay."""

    kernel_name: str
    overlay_name: str
    fu_instruction_words: List[List[int]] = field(default_factory=list)
    fu_constants: List[List[Tuple[int, int]]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def num_fus(self) -> int:
        """Number of FU sections in the image (the overlay depth)."""
        return len(self.fu_instruction_words)

    @property
    def total_instruction_words(self) -> int:
        """Instruction payload across all FUs, in 32-bit words."""
        return sum(len(words) for words in self.fu_instruction_words)

    @property
    def total_constant_words(self) -> int:
        """Constant payload across all FUs (address + value pairs), in words."""
        return sum(len(consts) * 2 for consts in self.fu_constants)

    @property
    def total_words(self) -> int:
        """All 32-bit words written during a context switch (headers included)."""
        header_words = 1 + 2 * self.num_fus  # magic + one padded header per FU
        return header_words + self.total_instruction_words + self.total_constant_words

    @property
    def size_bytes(self) -> int:
        """Image size in bytes (what the context-switch model charges)."""
        return self.total_words * 4

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise the image to its on-wire byte layout (see module docs)."""
        payload = bytearray(_WORD.pack(_MAGIC))
        for fu_index, words in enumerate(self.fu_instruction_words):
            constants = self.fu_constants[fu_index]
            payload += _HEADER.pack(fu_index, len(words), len(constants))
            payload += b"\x00\x00"  # pad the header to a 32-bit boundary
            for word in words:
                payload += _WORD.pack(word & 0xFFFFFFFF)
            for register, value in constants:
                payload += _CONST.pack(register, value)
        return bytes(payload)

    @classmethod
    def from_bytes(cls, data: bytes, kernel_name: str = "", overlay_name: str = "") -> "ConfigurationImage":
        """Parse a serialised image; raises ``EncodingError`` on bad data."""
        if len(data) < 4 or _WORD.unpack_from(data, 0)[0] != _MAGIC:
            raise EncodingError("not a valid overlay configuration image")
        offset = 4
        image = cls(kernel_name=kernel_name, overlay_name=overlay_name)
        while offset < len(data):
            fu_index, num_words, num_consts = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size + 2
            words = []
            for _ in range(num_words):
                words.append(_WORD.unpack_from(data, offset)[0])
                offset += _WORD.size
            constants = []
            for _ in range(num_consts):
                register, value = _CONST.unpack_from(data, offset)
                constants.append((register, value))
                offset += _CONST.size
            if fu_index != len(image.fu_instruction_words):
                raise EncodingError("FU sections out of order in configuration image")
            image.fu_instruction_words.append(words)
            image.fu_constants.append(constants)
        return image


def build_configuration_image(
    schedule: OverlaySchedule, program: OverlayProgram = None
) -> ConfigurationImage:
    """Build the configuration image for a scheduled kernel."""
    if program is None:
        program = generate_program(schedule)
    image = ConfigurationImage(
        kernel_name=schedule.kernel_name, overlay_name=schedule.overlay.name
    )
    for fu_program in program.fu_programs:
        image.fu_instruction_words.append(fu_program.encoded_words())
        constants: List[Tuple[int, int]] = []
        for const_id, register in fu_program.allocation.constant_registers.items():
            # A DFGNode holds the signed 32-bit word the register stores.
            constants.append((register, schedule.dfg.node(const_id).value))
        image.fu_constants.append(constants)
    return image
