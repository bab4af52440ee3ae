"""Unit tests for the mini-C kernel frontend."""

import pytest

from repro.dfg.analysis import dfg_depth
from repro.dfg.opcodes import OpCode
from repro.errors import ParseError
from repro.frontend.cparser import parse_c_kernel, tokenize
from repro.kernels.library import CHEBYSHEV_C_SOURCE, GRADIENT_C_SOURCE
from repro.kernels.reference import evaluate_dfg


class TestLexer:
    def test_tokenizes_identifiers_numbers_and_symbols(self):
        tokens = list(tokenize("int x = a + 0x10;"))
        kinds = [t.kind for t in tokens]
        assert "KEYWORD" in kinds and "IDENT" in kinds and "NUMBER" in kinds
        assert kinds[-1] == "EOF"

    def test_comments_are_skipped(self):
        tokens = list(tokenize("// line comment\n/* block */ int x"))
        assert all(t.kind != "COMMENT" for t in tokens)
        assert any(t.text == "x" for t in tokens)

    def test_unknown_character_raises_with_location(self):
        with pytest.raises(ParseError):
            list(tokenize("int x = a $ b;"))


class TestParser:
    def test_gradient_source_from_the_paper(self):
        dfg = parse_c_kernel(GRADIENT_C_SOURCE)
        assert dfg.name == "gradient"
        assert dfg.num_inputs == 5
        assert dfg.num_operations == 11
        assert dfg_depth(dfg) == 4
        # gradient([1,2,3,4,5]) = 4 + 1 + 1 + 4
        assert evaluate_dfg(dfg, [1, 2, 3, 4, 5]) == [10]

    def test_chebyshev_source_matches_polynomial(self):
        dfg = parse_c_kernel(CHEBYSHEV_C_SOURCE)
        x = 3
        expected = (16 * x ** 5 - 20 * x ** 3 + 5 * x) >> 0  # Horner chain value
        # The kernel computes T5(x) exactly (integer arithmetic).
        assert evaluate_dfg(dfg, [x]) == [16 * x ** 5 - 20 * x ** 3 + 5 * x]

    def test_return_statement_creates_output(self):
        dfg = parse_c_kernel("int f(int a, int b) { return a * b + 1; }")
        assert dfg.num_outputs == 1
        assert evaluate_dfg(dfg, [6, 7]) == [43]

    def test_pointer_output_parameter(self):
        dfg = parse_c_kernel("void f(int a, int *out) { *out = a + a; }")
        assert dfg.num_outputs == 1
        assert evaluate_dfg(dfg, [21]) == [42]

    def test_multiple_outputs(self):
        source = """
        void f(int a, int b, int *s, int *d) {
            *s = a + b;
            *d = a - b;
        }
        """
        dfg = parse_c_kernel(source)
        assert dfg.num_outputs == 2
        assert evaluate_dfg(dfg, [9, 5]) == [14, 4]

    def test_operator_precedence_matches_c(self):
        dfg = parse_c_kernel("int f(int a, int b, int c) { return a + b * c; }")
        assert evaluate_dfg(dfg, [2, 3, 4]) == [14]

    def test_parentheses_override_precedence(self):
        dfg = parse_c_kernel("int f(int a, int b, int c) { return (a + b) * c; }")
        assert evaluate_dfg(dfg, [2, 3, 4]) == [20]

    def test_shift_and_bitwise_operators(self):
        dfg = parse_c_kernel("int f(int a, int b) { return ((a << 2) ^ b) & 255; }")
        assert evaluate_dfg(dfg, [5, 9]) == [((5 << 2) ^ 9) & 255]

    def test_unary_minus_and_not(self):
        dfg = parse_c_kernel("int f(int a) { return -a + ~a; }")
        assert evaluate_dfg(dfg, [7]) == [-7 + ~7]

    def test_intrinsic_calls(self):
        dfg = parse_c_kernel(
            "int f(int a, int b) { return max(a, b) + min(a, b) + sqr(a) + abs(b); }"
        )
        assert evaluate_dfg(dfg, [3, -4]) == [3 + (-4) + 9 + 4]

    def test_local_variable_reuse(self):
        source = """
        int f(int x) {
            int t = x * x;
            t = t + 1;
            return t * x;
        }
        """
        dfg = parse_c_kernel(source)
        assert evaluate_dfg(dfg, [3]) == [(9 + 1) * 3]

    def test_hex_literals(self):
        dfg = parse_c_kernel("int f(int a) { return a & 0xF0; }")
        assert evaluate_dfg(dfg, [0x1234]) == [0x30]

    def test_all_zero_literal_reads_as_zero(self):
        dfg = parse_c_kernel("int f(int a) { return a + 00; }")
        assert evaluate_dfg(dfg, [5]) == [5]

    def test_name_override(self):
        dfg = parse_c_kernel("int f(int a) { return a + 1; }", name="renamed")
        assert dfg.name == "renamed"


class TestParserErrors:
    def test_undefined_variable(self):
        with pytest.raises(ParseError, match="undefined variable"):
            parse_c_kernel("int f(int a) { return a + ghost; }")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_c_kernel("int f(int a) { return sin(a); }")

    def test_wrong_intrinsic_arity(self):
        with pytest.raises(ParseError, match="argument"):
            parse_c_kernel("int f(int a) { return min(a); }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_c_kernel("int f(int a) { return a + 1 }")

    def test_no_outputs(self):
        with pytest.raises(ParseError, match="no outputs"):
            parse_c_kernel("void f(int a, int *o) { int t = a + 1; }")

    def test_assignment_to_non_output_pointer_name(self):
        with pytest.raises(ParseError, match="not an output parameter"):
            parse_c_kernel("void f(int a, int *o) { *a = 3; o = a; }")

    def test_multiple_returns_rejected(self):
        with pytest.raises(ParseError, match="multiple return"):
            parse_c_kernel("int f(int a) { return a; return a; }")

    def test_leading_zero_decimal_literal(self):
        with pytest.raises(ParseError, match="invalid integer literal '007'") as caught:
            parse_c_kernel("int f(int a) {\n  return a + 007;\n}")
        assert (caught.value.line, caught.value.column) == (2, 14)

    def test_unexpected_end_of_input(self):
        with pytest.raises(ParseError):
            parse_c_kernel("int f(int a) { return a + 1;")
