"""Unit tests for repro.dfg.opcodes."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg.opcodes import (
    COMPUTE_OPCODES,
    OP_ARITY,
    OP_EXPRESSIONS,
    OP_INTERVALS,
    OP_SEMANTICS,
    RING_OPCODES,
    SIGNED_OPERANDS,
    OpCode,
    parse_opcode,
)
from repro.schedule.types import SlotKind

#: The classification sets as the module docstring defines them.
STRUCTURAL = {OpCode.INPUT, OpCode.OUTPUT, OpCode.CONST}
CONTROL = {OpCode.LOAD, OpCode.PASS, OpCode.NOP}
COMMUTATIVE = {
    OpCode.ADD, OpCode.MUL, OpCode.AND, OpCode.OR, OpCode.XOR, OpCode.MIN, OpCode.MAX
}


class TestOpcodeClassification:
    def test_structural_opcodes_are_neither_compute_nor_control(self):
        for op in (OpCode.INPUT, OpCode.OUTPUT, OpCode.CONST):
            assert not op.is_compute
            assert not op.is_control

    def test_control_opcodes(self):
        assert OpCode.LOAD.is_control
        assert OpCode.PASS.is_control
        assert OpCode.NOP.is_control
        assert not OpCode.MUL.is_control

    def test_compute_opcodes_are_neither_structural_nor_control(self):
        for op in COMPUTE_OPCODES:
            assert op.is_compute
            assert op not in STRUCTURAL
            assert not op.is_control

    def test_every_opcode_has_arity(self):
        for op in OpCode:
            assert op in OP_ARITY

    def test_commutativity(self):
        assert OpCode.ADD.is_commutative
        assert OpCode.MUL.is_commutative
        assert not OpCode.SUB.is_commutative
        assert not OpCode.SHL.is_commutative


class TestPrecomputedFlags:
    """The flags stored on each member equal the definitions they replace."""

    @pytest.mark.parametrize("op", list(OpCode), ids=lambda op: op.name)
    def test_flags_and_arity_match_the_definitions(self, op):
        assert op.is_control is (op in CONTROL)
        assert op.is_compute is (op not in STRUCTURAL and op not in CONTROL)
        assert op.is_commutative is (op in COMMUTATIVE)
        assert op.arity == OP_ARITY[op]

    def test_compute_opcodes_are_the_remaining_members(self):
        assert set(COMPUTE_OPCODES) == set(OpCode) - STRUCTURAL - CONTROL


class TestIdentityHashing:
    """Members hash by identity, which must agree with ``==``."""

    @pytest.mark.parametrize("enum_class", [OpCode, SlotKind], ids=lambda c: c.__name__)
    def test_hash_agrees_with_equality(self, enum_class):
        members = list(enum_class)
        for a in members:
            assert hash(a) == object.__hash__(a)
            for b in members:
                assert (a == b) is (a is b)
        assert len({hash(m) for m in members}) == len(members)

    @pytest.mark.parametrize("enum_class", [OpCode, SlotKind], ids=lambda c: c.__name__)
    def test_member_keyed_dicts_survive_a_pickle_round_trip(self, enum_class):
        table = {member: member.value for member in enum_class}
        restored = pickle.loads(pickle.dumps(table))
        assert restored == table
        for member in enum_class:
            assert restored[member] == member.value
        assert all(key is enum_class(key.value) for key in restored)
        assert set(pickle.loads(pickle.dumps(set(enum_class)))) == set(enum_class)


class TestSemantics:
    def test_add_sub_mul(self):
        assert OpCode.ADD.evaluate(3, 4) == 7
        assert OpCode.SUB.evaluate(3, 4) == -1
        assert OpCode.MUL.evaluate(3, 4) == 12

    def test_sqr_is_unary(self):
        assert OpCode.SQR.evaluate(-5) == 25

    def test_muladd_and_mulsub(self):
        assert OpCode.MULADD.evaluate(2, 3, 4) == 10
        assert OpCode.MULSUB.evaluate(2, 3, 4) == 2

    def test_logic_ops(self):
        assert OpCode.AND.evaluate(0b1100, 0b1010) == 0b1000
        assert OpCode.OR.evaluate(0b1100, 0b1010) == 0b1110
        assert OpCode.XOR.evaluate(0b1100, 0b1010) == 0b0110
        assert OpCode.NOT.evaluate(0) == -1

    def test_shifts_mask_the_shift_amount(self):
        assert OpCode.SHL.evaluate(1, 4) == 16
        assert OpCode.SHL.evaluate(1, 33) == 2  # 33 & 31 == 1
        assert OpCode.SHR.evaluate(16, 2) == 4

    def test_min_max_abs(self):
        assert OpCode.MIN.evaluate(-3, 4) == -3
        assert OpCode.MAX.evaluate(-3, 4) == 4
        assert OpCode.ABS.evaluate(-3) == 3

    def test_32bit_wraparound_positive(self):
        assert OpCode.ADD.evaluate(2**31 - 1, 1) == -(2**31)

    def test_32bit_wraparound_multiplication(self):
        result = OpCode.MUL.evaluate(2**20, 2**20)
        assert -(2**31) <= result <= 2**31 - 1

    def test_wrong_operand_count_raises(self):
        with pytest.raises(ValueError):
            OpCode.ADD.evaluate(1)
        with pytest.raises(ValueError):
            OpCode.SQR.evaluate(1, 2)

    def test_structural_opcode_has_no_semantics(self):
        with pytest.raises(ValueError):
            OpCode.INPUT.evaluate()

    def test_pass_is_identity(self):
        assert OP_SEMANTICS[OpCode.PASS](42) == 42


class TestExpressionTable:
    """OP_EXPRESSIONS (inlined by compiled evaluation plans) must mirror
    OP_SEMANTICS exactly — one drifting entry would silently corrupt every
    fast-engine output stream."""

    def test_every_semantic_opcode_has_an_expression(self):
        assert set(OP_EXPRESSIONS) == set(OP_SEMANTICS)

    @pytest.mark.parametrize("opcode", sorted(OP_SEMANTICS, key=lambda o: o.name))
    def test_expression_matches_semantics_on_probe_operands(self, opcode):
        probes = [-(2 ** 31), -65, -1, 0, 1, 3, 64, 2 ** 20, 2 ** 31 - 1]
        arity = OP_ARITY[opcode]
        template = OP_EXPRESSIONS[opcode]
        for base in probes:
            operands = [base + i for i in range(arity)]
            via_expr = eval(  # noqa: S307 - fixed expression table under test
                template.format(*[repr(o) for o in operands])
            )
            # Wrapped, the result is evaluate()'s word.
            wrapped = ((via_expr + 2 ** 31) % 2 ** 32) - 2 ** 31
            assert wrapped == opcode.evaluate(*operands), (opcode, operands)


class TestVectorExpressionTable:
    """OP_VECTOR_EXPRESSIONS (inlined by the batched engine's vector plans)
    must agree element-wise with OpCode.evaluate for every opcode on int64
    arrays, including the signed 32-bit extremes."""

    def test_vector_table_covers_every_semantic_opcode(self):
        from repro.dfg.opcodes import OP_VECTOR_EXPRESSIONS

        assert set(OP_VECTOR_EXPRESSIONS) == set(OP_SEMANTICS)

    @pytest.mark.parametrize("opcode", sorted(OP_SEMANTICS, key=lambda o: o.name))
    def test_vector_expression_matches_evaluate_elementwise(self, opcode):
        np = pytest.importorskip("numpy")
        from repro.dfg.opcodes import OP_VECTOR_EXPRESSIONS

        probes = [-(2 ** 31), -65, -1, 0, 1, 3, 64, 2 ** 20, 2 ** 31 - 1]
        arity = OP_ARITY[opcode]
        template = OP_VECTOR_EXPRESSIONS[opcode]
        columns = [
            np.array([base + i for base in probes], dtype=np.int64)
            for i in range(arity)
        ]
        # Words, as a vector plan's inputs and its wrapped values are.
        columns = [((c & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000 for c in columns]
        via_expr = eval(  # noqa: S307 - fixed expression table under test
            template.format(*[f"columns[{i}]" for i in range(arity)]),
            {"np": np, "columns": columns},
        )
        wrapped = ((np.asarray(via_expr, dtype=np.int64) & 0xFFFFFFFF)
                   ^ 0x80000000) - 0x80000000
        for row in range(len(probes)):
            operands = [int(c[row]) for c in columns]
            assert int(wrapped[row]) == opcode.evaluate(*operands), (opcode, operands)


class TestParseOpcode:
    def test_parse_by_value(self):
        assert parse_opcode("add") is OpCode.ADD

    def test_parse_by_name(self):
        assert parse_opcode("MUL") is OpCode.MUL

    def test_parse_strips_whitespace(self):
        assert parse_opcode("  sub ") is OpCode.SUB

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            parse_opcode("divide")


#: Interval bounds from tiny to past int64, both signs.
_BOUNDS = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([-(2 ** 63), -(2 ** 62), -(2 ** 31), 2 ** 31 - 1, 2 ** 32, 2 ** 62, 2 ** 63 - 1]),
    st.integers(-(2 ** 70), 2 ** 70),
)


@st.composite
def _operand(draw):
    """An interval and a point in it (often a corner)."""
    low, high = sorted((draw(_BOUNDS), draw(_BOUNDS)))
    point = draw(st.one_of(st.sampled_from([low, high]), st.integers(low, high)))
    return (low, high), point


class TestIntervalTable:
    """OP_INTERVALS bounds every operation's unwrapped result, and the ring
    opcodes are exactly those whose result mod 2**32 ignores the operands'
    higher bits."""

    def test_every_semantic_opcode_has_an_interval(self):
        assert set(OP_INTERVALS) == set(OP_SEMANTICS)
        assert RING_OPCODES | set(SIGNED_OPERANDS) == set(OP_SEMANTICS)
        assert not RING_OPCODES & set(SIGNED_OPERANDS)

    @pytest.mark.parametrize("opcode", sorted(OP_SEMANTICS, key=lambda o: o.name))
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_the_interval_holds_the_result(self, opcode, data):
        operands = [data.draw(_operand()) for _ in range(OP_ARITY[opcode])]
        low, high = OP_INTERVALS[opcode](*(interval for interval, _ in operands))
        result = OP_SEMANTICS[opcode](*(point for _, point in operands))
        assert low <= result <= high

    @pytest.mark.parametrize("opcode", sorted(RING_OPCODES, key=lambda o: o.name))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ring_results_ignore_high_operand_bits(self, opcode, data):
        points = [data.draw(st.integers(-(2 ** 40), 2 ** 40)) for _ in range(OP_ARITY[opcode])]
        shifted = [p + data.draw(st.integers(-3, 3)) * 2 ** 32 for p in points]
        assert opcode.evaluate(*points) == opcode.evaluate(*shifted)
