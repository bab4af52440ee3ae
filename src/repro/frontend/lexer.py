"""Lexer for the mini-C kernel frontend.

The lexer is a pure function from source text to a token list, the first
stage of the staged frontend (lexer, AST parser, lowering).  The frontend
cache (:mod:`repro.frontend.cache`) memoises the lowered DFG per source
content hash, so a sweep that parses the same kernel source hundreds of
times lexes it once.

Token kinds
-----------
``NUMBER``
    Decimal or hexadecimal integer literal.
``IDENT``
    Identifier (variable, function or parameter name).
``KEYWORD``
    One of ``int``, ``void``, ``return``.
``SHIFT``
    The two-character operators ``<<`` and ``>>``.
``SYMBOL``
    Single-character punctuation and operators.
``EOF``
    Synthesised end-of-input marker (always the last token).

Comments (``//`` and ``/* */``) and whitespace are dropped during lexing;
line/column positions survive on every token for diagnostics.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import List

from ..errors import ParseError


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based line/column)."""

    kind: str
    text: str
    line: int
    column: int


_TOKEN_SPEC = [
    ("COMMENT", r"//[^\n]*|/\*.*?\*/"),
    ("NUMBER", r"0[xX][0-9a-fA-F]+|\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("SHIFT", r"<<|>>"),
    ("SYMBOL", r"[{}();,=*+\-&|^~]"),
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("MISMATCH", r"."),
]
_TOKEN_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL
)

#: Reserved words of the mini-C dialect.
KEYWORDS = frozenset({"int", "void", "return"})


def source_hash(source: str) -> str:
    """Stable content hash of a kernel source text.

    This keys the frontend DFG cache and is the first component of the
    end-to-end compile-cache key: two byte-identical sources share every
    cached artefact, any edit — including whitespace or comments, which may
    shift diagnostics — misses.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def tokenize(source: str) -> List[Token]:
    """Split the kernel source into tokens, dropping comments and whitespace.

    Raises
    ------
    ParseError
        On any character outside the mini-C dialect.
    """
    tokens: List[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup or "MISMATCH"
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        if kind in ("SKIP", "COMMENT"):
            line += text.count("\n")
            if "\n" in text:
                line_start = match.start() + text.rfind("\n") + 1
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {text!r}", line, column)
        if kind == "IDENT" and text in KEYWORDS:
            kind = "KEYWORD"
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, 0))
    return tokens
