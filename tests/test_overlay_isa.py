"""Tests for the 32-bit FU instruction encoding."""

import pytest

from repro.dfg.opcodes import OpCode
from repro.errors import EncodingError
from repro.overlay.isa import (
    Instruction,
    InstructionKind,
    decode_instruction,
    encode_instruction,
)


class TestEncodeDecode:
    def test_roundtrip_exec(self):
        original = Instruction.exec(OpCode.MUL, ra=3, rb=17, rd=9, wb=True, ndf=False)
        word = encode_instruction(original)
        assert 0 <= word <= 0xFFFFFFFF
        assert decode_instruction(word) == original

    def test_roundtrip_all_alu_opcodes(self):
        for opcode in (
            OpCode.ADD,
            OpCode.SUB,
            OpCode.MUL,
            OpCode.SQR,
            OpCode.MULADD,
            OpCode.MULSUB,
            OpCode.NEG,
            OpCode.AND,
            OpCode.OR,
            OpCode.XOR,
            OpCode.NOT,
            OpCode.SHL,
            OpCode.SHR,
            OpCode.MIN,
            OpCode.MAX,
            OpCode.ABS,
        ):
            instruction = Instruction.exec(opcode, ra=1, rb=2)
            assert decode_instruction(encode_instruction(instruction)).opcode is opcode

    def test_roundtrip_every_register_address(self):
        for register in range(32):
            instruction = Instruction.exec(OpCode.ADD, ra=register, rb=31 - register, rd=register)
            decoded = decode_instruction(encode_instruction(instruction))
            assert (decoded.ra, decoded.rb, decoded.rd) == (register, 31 - register, register)

    def test_roundtrip_nop_load_pass(self):
        for instruction in (
            Instruction.nop(),
            Instruction.load(rd=7),
            Instruction.passthrough(ra=21, wb=False, ndf=True),
        ):
            assert decode_instruction(encode_instruction(instruction)) == instruction

    def test_wb_and_ndf_flags_are_independent_bits(self):
        base = encode_instruction(Instruction.exec(OpCode.ADD, ra=1, rb=2))
        wb = encode_instruction(Instruction.exec(OpCode.ADD, ra=1, rb=2, wb=True))
        ndf = encode_instruction(Instruction.exec(OpCode.ADD, ra=1, rb=2, ndf=True))
        assert wb ^ base == 1 << 22
        assert ndf ^ base == 1 << 23

    def test_word_is_32_bits(self):
        word = encode_instruction(
            Instruction.exec(OpCode.MAX, ra=31, rb=31, rd=31, wb=True, ndf=True)
        )
        assert word < 2 ** 32


class TestValidation:
    def test_register_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            Instruction.exec(OpCode.ADD, ra=32, rb=0)

    def test_wb_only_allowed_on_exec_or_pass(self):
        with pytest.raises(EncodingError):
            Instruction(kind=InstructionKind.LOAD, opcode=OpCode.LOAD, rd=1, wb=True)

    def test_decode_rejects_oversized_words(self):
        with pytest.raises(EncodingError):
            decode_instruction(2 ** 32)

    def test_decode_rejects_unknown_opcode_field(self):
        word = (31 << 2) | int(InstructionKind.EXEC)
        with pytest.raises(EncodingError):
            decode_instruction(word)


#: One instruction per kind code.
KIND_EXAMPLES = {
    InstructionKind.NOP: Instruction.nop(),
    InstructionKind.EXEC: Instruction.exec(OpCode.MULADD, ra=1, rb=2, rd=3, wb=True),
    InstructionKind.PASS: Instruction.passthrough(ra=4, ndf=True),
    InstructionKind.LOAD: Instruction.load(rd=5),
}
#: ALU opcode codes 0-18 are assigned; 19-31 decode to nothing.
KNOWN_OPCODE_CODES = 19


class TestKindDecoding:
    @pytest.mark.parametrize("kind", list(InstructionKind), ids=lambda k: k.name)
    def test_every_kind_code_decodes_to_its_member(self, kind):
        word = encode_instruction(KIND_EXAMPLES[kind])
        assert word & 0x3 == kind.value
        decoded = decode_instruction(word)
        assert decoded.kind is kind
        assert decoded == KIND_EXAMPLES[kind]

    @pytest.mark.parametrize("kind", list(InstructionKind), ids=lambda k: k.name)
    def test_unknown_opcode_codes_still_raise_after_a_decode(self, kind):
        known = encode_instruction(KIND_EXAMPLES[kind])
        for code in range(KNOWN_OPCODE_CODES, 32):
            decode_instruction(known)
            with pytest.raises(EncodingError, match="unknown ALU opcode code"):
                decode_instruction((known & ~(0x1F << 2)) | (code << 2))


class TestMnemonics:
    def test_nop(self):
        assert Instruction.nop().mnemonic() == "NOP"

    def test_load(self):
        assert Instruction.load(rd=4).mnemonic() == "LOAD R4"

    def test_exec_binary(self):
        text = Instruction.exec(OpCode.SUB, ra=0, rb=2).mnemonic()
        assert text == "SUB (R0 R2)"  # matches the paper's Table II notation

    def test_exec_with_writeback_and_ndf(self):
        text = Instruction.exec(OpCode.ADD, ra=1, rb=2, rd=5, wb=True, ndf=True).mnemonic()
        assert "->R5" in text and "[ndf]" in text

    def test_pass(self):
        assert Instruction.passthrough(ra=9).mnemonic() == "PASS (R9)"
