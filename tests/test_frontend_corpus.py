"""Golden pin of the mini-C frontend over a grammar-generated corpus.

One sha256 covers the canonical JSON of every DFG lowered from the
:mod:`minic_corpus` kernels, once with and once without the optimizer, so
a frontend refactor that changes any node id, name, operand or constant
moves it.  A table of one-error sources pins each distinct ``ParseError``
message together with its line and column.
"""

import hashlib
import re

import pytest

from minic_corpus import BINARY_OPS, INTRINSIC_ARITY, WIDE_LITERALS, corpus
from repro.dfg.serialize import canonical_json
from repro.errors import ParseError
from repro.frontend import lower_c_kernel

CORPUS_SEED = 2026
CORPUS_SIZE = 600
CORPUS_SHA256 = "82c1b4493314aad83e979d41ffeec6380d4279ca21b525f1557bca8ea280dc32"

SOURCES = corpus(CORPUS_SEED, CORPUS_SIZE)


def test_corpus_covers_every_construct():
    text = "\n".join(SOURCES)
    for op in BINARY_OPS:
        assert f" {op} " in text, op
    assert re.search(r"(= |\(|, |[-~] ?)-[\w(]", text)  # unary minus
    assert re.search(r"~[\w(-]", text)
    for func in INTRINSIC_ARITY:
        assert f"{func}(" in text, func
    for literal in WIDE_LITERALS + ("0x", "0X", " 00"):
        assert literal in text, literal
    for pattern in (
        r"\breturn ",  # return output
        r"\*o\d = ",  # *out output
        r"\n\s*o\d = ",  # out = ... without the star
        r"int \*o\d, int a\d",  # a pointer declared before an input
        r"\n\s*t\d = ",  # reassigned local
        r"\n\s*a\d = ",  # reassigned input
        r"//",
        r"/\*",
    ):
        assert re.search(pattern, text), pattern


def test_lowered_corpus_matches_the_golden_digest():
    digest = hashlib.sha256()
    for source in SOURCES:
        for run_optimizer in (True, False):
            dfg = lower_c_kernel(source, run_optimizer=run_optimizer)
            digest.update(canonical_json(dfg).encode("utf-8"))
            digest.update(b"\n")
    assert digest.hexdigest() == CORPUS_SHA256


#: ``(source, message, line, column)``: one source per distinct message.
SINGLE_ERRORS = [
    ("int f(int a) {\n  return a $ 1;\n}", "unexpected character '$'", 2, 12),
    ("int f(int a) {\n  return a + 1\n}", "expected ';', found '}'", 3, 1),
    ("int (int a) { return a; }", "expected 'IDENT', found '('", 1, 5),
    ("int f(int a) { return a + 1;", "unexpected end of input inside kernel body", 0, 0),
    ("int f(return a) { return a; }", "unsupported parameter type 'return'", 1, 7),
    ("int f(int a) {\n  return ;\n}", "unexpected token ';'", 2, 10),
    (
        "int f(int a) { return sin(a); }",
        "unknown function 'sin' (supported intrinsics: abs, max, min, muladd, mulsub, sqr)",
        1,
        23,
    ),
    ("int f(int a) { return min(a); }", "min expects 2 argument(s), got 1", 1, 23),
    ("int f(int a) {\n  return a;\n  return a;\n}", "multiple return statements", 3, 3),
    ("void f(int a, int *o) { *a = 3; *o = a; }", "'a' is not an output parameter", 1, 26),
    (
        "void f(int a, int *o) { int t = a + 1; }",
        "kernel produces no outputs (no return or *out assignment)",
        0,
        0,
    ),
    ("int f(int a) {\n  int t = a;\n  return t + ghost;\n}", "use of undefined variable 'ghost'", 3, 14),
    ("int f(int a) { return a + 007; }", "invalid integer literal '007'", 1, 27),
]


@pytest.mark.parametrize("source, message, line, column", SINGLE_ERRORS)
def test_single_error_sources_pin_message_and_position(source, message, line, column):
    with pytest.raises(ParseError) as caught:
        lower_c_kernel(source)
    location = f" (line {line}, column {column})" if line else ""
    assert str(caught.value) == message + location
    assert (caught.value.line, caught.value.column) == (line, column)


def test_several_errors_report_the_first_in_source_order():
    # An undefined name on line 2 comes before the syntax error on line 3:
    # the one-pass parser meets it first.
    source = "int f(int a) {\n  int t = ghost;\n  return t +;\n}"
    with pytest.raises(ParseError) as caught:
        lower_c_kernel(source)
    assert (caught.value.line, caught.value.column) == (2, 11)
    assert "undefined variable 'ghost'" in str(caught.value)
