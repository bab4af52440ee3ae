"""Binary consistency checks (family ``BIN``).

Translation validation of the last lowering step: every emitted instruction
must survive an encode→decode→re-encode round trip, the serialised
:class:`~repro.program.binary.ConfigurationImage` must carry exactly the
words the program encodes to (and byte-round-trip losslessly), per-FU
sections must fit the instruction memory, and decoded fields must be legal
for the FU variant (no write-back bit without a write-back path, no explicit
LOAD instructions on load/execute-overlapping variants).

FUs whose program cannot be encoded because the register allocation is
broken (``RegisterAllocationError``) are skipped here — the ``regalloc``
pass owns that failure.

Codes
-----
``BIN001``  encode/decode round-trip mismatch, undecodable word, or the
            image's words diverging from the program's encoding
``BIN002``  FU section exceeds the instruction-memory depth
``BIN003``  configuration image does not survive a bytes round trip
``BIN004``  decoded write-back field illegal for the variant
``BIN005``  explicit LOAD instructions disagree with the variant's load model
``BIN006``  image shape mismatch (FU count, constant sections)
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import EncodingError, RegisterAllocationError
from ..overlay.isa import Instruction, InstructionKind, decode_instruction, encode_instruction
from .diagnostics import Diagnostic, Severity

_PASS = "binary"
_LOAD = InstructionKind.LOAD


#: Most distinct words the decode memo holds (a run of 1440 verified
#: compiles saw about 900).
DECODE_MEMO_LIMIT = 4096


class _Decoded(NamedTuple):
    """One word's decode: the instruction (or why it does not decode) and
    whether re-encoding it gives the word back."""

    instruction: Optional[Instruction]
    error: Optional[EncodingError]
    round_trips: bool


class _Decoder(Dict[int, _Decoded]):
    """``word -> _Decoded``, decoding and re-encoding each distinct word once
    per process.

    Programs repeat words (NOPs, pass-throughs), the image carries the
    program's words again, and the kernels of one run share most of their
    words, so every later sight of a word is a lookup.  Decoding is a pure
    function of the word, so the memo keeps the pass independent of codegen.
    It holds at most :data:`DECODE_MEMO_LIMIT` words and is cleared whole
    when full.  Entries are immutable and stored whole, so threads share it
    without a lock; racing threads may each add one word past the bound
    before the next clear.
    """

    def __missing__(self, word: int) -> _Decoded:
        try:
            instruction = decode_instruction(word)
        except EncodingError as error:
            decoded = _Decoded(None, error, False)
        else:
            decoded = _Decoded(instruction, None, encode_instruction(instruction) == word)
        if len(self) >= DECODE_MEMO_LIMIT:
            self.clear()
        self[word] = decoded
        return decoded


#: The process's decode memo, shared by every verification.
_DECODED = _Decoder()


def _error(code: str, message: str, **location) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        pass_name=_PASS,
        **location,
    )


def run(ctx) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    variant = ctx.overlay.variant
    encoded_sections: List[Tuple[int, List[int]]] = []
    decode = _DECODED

    stages = ctx.schedule.stages
    for fu_program in ctx.program.fu_programs:
        index = fu_program.stage
        try:
            words = fu_program.encoded_words()
        except RegisterAllocationError:
            continue  # the regalloc pass owns broken allocations
        except EncodingError as error:
            out.append(
                _error("BIN001", f"FU {index} program does not encode: {error}", stage=index)
            )
            continue
        encoded_sections.append((index, words))
        if len(words) > variant.instruction_memory_depth:
            out.append(
                _error(
                    "BIN002",
                    f"FU {index} encodes to {len(words)} words but the "
                    f"{variant.paper_label} instruction memory holds "
                    f"{variant.instruction_memory_depth}",
                    stage=index,
                )
            )
        out.extend(_check_words(words, variant, index, decode))
        loads = 0
        for word in words:
            instruction = decode[word].instruction
            if instruction is not None and instruction.kind is _LOAD:
                loads += 1
        if variant.overlap_load_execute:
            if loads:
                out.append(
                    _error(
                        "BIN005",
                        f"FU {index} carries {loads} explicit LOAD instructions "
                        f"but {variant.paper_label} overlaps loads with "
                        "execution (loads are implicit)",
                        stage=index,
                    )
                )
        elif 0 <= index < len(stages) and loads != stages[index].num_loads:
            out.append(
                _error(
                    "BIN005",
                    f"FU {index} encodes {loads} LOAD instructions for "
                    f"{stages[index].num_loads} stream loads",
                    stage=index,
                )
            )

    if ctx.configuration is not None:
        out.extend(_check_image(ctx, encoded_sections, decode))
    return out


def _check_words(words: List[int], variant, index: int, decode: _Decoder) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for slot, word in enumerate(words):
        decoded, error, round_trips = decode[word]
        if decoded is None:
            out.append(
                _error(
                    "BIN001",
                    f"word {slot} of FU {index} (0x{word:08x}) does not "
                    f"decode: {error}",
                    stage=index,
                    slot=slot,
                )
            )
            continue
        if not round_trips:
            out.append(
                _error(
                    "BIN001",
                    f"word {slot} of FU {index} (0x{word:08x}) does not "
                    "survive a decode/re-encode round trip",
                    stage=index,
                    slot=slot,
                )
            )
        if decoded.wb and not variant.write_back:
            out.append(
                _error(
                    "BIN004",
                    f"word {slot} of FU {index} sets the write-back bit but "
                    f"{variant.paper_label} has no write-back path",
                    stage=index,
                    slot=slot,
                )
            )
    return out


def _check_image(ctx, encoded_sections, decode: _Decoder) -> List[Diagnostic]:
    image = ctx.configuration
    overlay = ctx.overlay
    out: List[Diagnostic] = []

    if image.num_fus != overlay.depth:
        out.append(
            _error(
                "BIN006",
                f"configuration image has {image.num_fus} FU sections for a "
                f"depth-{overlay.depth} overlay",
            )
        )

    for index, words in encoded_sections:
        if index >= image.num_fus:
            continue  # the shape mismatch above covers it
        image_words = list(image.fu_instruction_words[index])
        if image_words != words:
            out.append(
                _error(
                    "BIN001",
                    f"FU {index} image section diverges from the program's "
                    f"encoding ({len(image_words)} vs {len(words)} words, "
                    "first difference at word "
                    f"{_first_difference(image_words, words)})",
                    stage=index,
                )
            )
        out.extend(_check_words(image_words, overlay.variant, index, decode))

    for fu_program in ctx.program.fu_programs:
        index = fu_program.stage
        if index >= image.num_fus:
            continue
        expected = []
        for const_id, register in fu_program.allocation.constant_registers.items():
            if const_id in ctx.dfg:
                # A constant register holds the literal's signed 32-bit word.
                value = int(ctx.dfg.node(const_id).value)
                expected.append((register, ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000))
        if sorted(image.fu_constants[index]) != sorted(expected):
            out.append(
                _error(
                    "BIN006",
                    f"FU {index} constant section {list(image.fu_constants[index])} "
                    f"disagrees with the allocation's constants {expected}",
                    stage=index,
                )
            )

    try:
        restored = type(image).from_bytes(image.to_bytes())
    except EncodingError as error:
        out.append(_error("BIN003", f"configuration image does not serialise: {error}"))
        return out
    words_restored = [list(w) for w in restored.fu_instruction_words]
    words_original = [list(w) for w in image.fu_instruction_words]
    consts_restored = [[tuple(p) for p in c] for c in restored.fu_constants]
    consts_original = [[tuple(p) for p in c] for c in image.fu_constants]
    if words_restored != words_original or consts_restored != consts_original:
        out.append(
            _error("BIN003", "configuration image does not survive a bytes round trip")
        )
    return out


def _first_difference(left: List[int], right: List[int]) -> int:
    for position, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return position
    return min(len(left), len(right))
