"""Mini-C frontend for straight-line compute kernels.

The paper's flow uses the HercuLeS HLS tool to turn a C kernel (Fig. 2a) into
a DFG.  This module provides a small, dependency-free substitute: a lexer and
recursive-descent parser for the subset of C that the paper's benchmark
kernels use — a single function of ``int`` inputs and pointer outputs whose
body is a sequence of declarations and assignments over integer expressions.

Supported grammar (informally)::

    kernel     := type IDENT '(' params ')' '{' statement* '}'
    params     := param (',' param)*
    param      := 'int' '*'? IDENT
    statement  := 'int' IDENT '=' expr ';'
                | '*'? IDENT '=' expr ';'
                | 'return' expr ';'
    expr       := shift (('&' | '^' | '|') shift)*          (C precedence)
    shift      := additive (('<<' | '>>') additive)*
    additive   := term (('+' | '-') term)*
    term       := unary (('*') unary)*
    unary      := ('-' | '~')? primary
    primary    := INT | IDENT | IDENT '(' args ')' | '(' expr ')'

Calls to the intrinsic functions ``sqr``, ``abs``, ``min``, ``max``,
``muladd`` and ``mulsub`` map to the corresponding DFG opcodes.  Division
and data-dependent control flow are rejected with a
:class:`~repro.errors.ParseError` — they are outside what the DSP-based FU
supports.

One pass
--------
The parser builds the DFG while it reads, through
:class:`~repro.dfg.builder.DFGBuilder`, against a symbol table of the
current value of every name: inputs in parameter order, then each
statement in order, each expression depth-first and left to right.  The
optimizer, when asked for, runs on the finished graph.

It pulls tokens from the lexer one at a time, one token ahead, and stops
at the first error it meets, so a source with several errors reports the
first one in source order.  Two checks wait for the end of their
construct: an intrinsic's argument count is checked at its closing
parenthesis (and reported at its name), and a kernel without outputs is
reported at its closing brace.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dfg.builder import DFGBuilder
from ..dfg.graph import DFG
from ..dfg.opcodes import OpCode
from ..dfg.transforms import optimize
from ..errors import ParseError
from .lexer import Token, tokenize

__all__ = [
    "Token",
    "tokenize",
    "lower_c_kernel",
    "parse_c_kernel",
    "INTRINSICS",
]

#: Intrinsic functions of the mini-C dialect: name -> (opcode, arity).
INTRINSICS = {
    "sqr": (OpCode.SQR, 1),
    "abs": (OpCode.ABS, 1),
    "min": (OpCode.MIN, 2),
    "max": (OpCode.MAX, 2),
    "muladd": (OpCode.MULADD, 3),
    "mulsub": (OpCode.MULSUB, 3),
}

#: Binary operators by C precedence level, loosest first.
_PRECEDENCE = (("|",), ("^",), ("&",), ("<<", ">>"), ("+", "-"), ("*",))

_BINARY_OPCODES = {
    "|": OpCode.OR,
    "^": OpCode.XOR,
    "&": OpCode.AND,
    "<<": OpCode.SHL,
    ">>": OpCode.SHR,
    "+": OpCode.ADD,
    "-": OpCode.SUB,
    "*": OpCode.MUL,
}


class _Parser:
    """Recursive-descent parser that lowers the kernel into a DFG as it reads.

    Every grammar method that reads a value returns the id of the DFG node
    that holds it.
    """

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.token = next(self.tokens)
        self.builder = DFGBuilder()
        self.symbols: Dict[str, int] = {}
        self.output_params: List[str] = []
        self.outputs_written: Dict[str, int] = {}
        self.returned: Optional[int] = None

    # -- token helpers ------------------------------------------------------
    def advance(self) -> Token:
        token = self.token
        if token.kind != "EOF":
            self.token = next(self.tokens)
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.token
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}", token.line, token.column
            )
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.token
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    # -- grammar ------------------------------------------------------------
    def parse_kernel(self, name: Optional[str] = None) -> DFG:
        """Parse one kernel function into a validated DFG (``name`` overrides its name)."""
        self.expect("KEYWORD")  # return type: int or void
        name_token = self.expect("IDENT")
        self.builder.dfg.name = name or name_token.text
        self.expect("SYMBOL", "(")
        self._parse_params()
        self.expect("SYMBOL", ")")
        self.expect("SYMBOL", "{")
        while not self.accept("SYMBOL", "}"):
            if self.token.kind == "EOF":
                raise ParseError("unexpected end of input inside kernel body")
            self._parse_statement()
        self._finish_outputs()
        for _ in self.tokens:  # text after the kernel is ignored but must lex
            pass
        return self.builder.build()

    def _parse_params(self) -> None:
        if self.token.kind == "SYMBOL" and self.token.text == ")":
            return
        while True:
            keyword = self.expect("KEYWORD")
            if keyword.text not in ("int", "void"):
                raise ParseError(
                    f"unsupported parameter type {keyword.text!r}",
                    keyword.line,
                    keyword.column,
                )
            is_pointer = bool(self.accept("SYMBOL", "*"))
            ident = self.expect("IDENT")
            if is_pointer:
                self.output_params.append(ident.text)
            else:
                self.symbols[ident.text] = self.builder.input(ident.text)
            if not self.accept("SYMBOL", ","):
                break

    def _parse_statement(self) -> None:
        token = self.token
        if token.kind == "KEYWORD" and token.text == "int":
            self.advance()
            ident = self.expect("IDENT")
            self.expect("SYMBOL", "=")
            self.symbols[ident.text] = self._parse_expression()
            self.expect("SYMBOL", ";")
            return
        if token.kind == "KEYWORD" and token.text == "return":
            if self.returned is not None:
                raise ParseError("multiple return statements", token.line, token.column)
            self.advance()
            self.returned = self._parse_expression()
            self.expect("SYMBOL", ";")
            return
        dereference = bool(self.accept("SYMBOL", "*"))
        ident = self.expect("IDENT")
        is_output = ident.text in self.output_params
        if dereference and not is_output:
            raise ParseError(
                f"{ident.text!r} is not an output parameter", ident.line, ident.column
            )
        self.expect("SYMBOL", "=")
        value = self._parse_expression()
        self.expect("SYMBOL", ";")
        if is_output:
            self.outputs_written[ident.text] = value
        else:
            self.symbols[ident.text] = value

    def _finish_outputs(self) -> None:
        produced = False
        for name in self.output_params:
            if name in self.outputs_written:
                self.builder.output(self.outputs_written[name], name)
                produced = True
        if self.returned is not None:
            self.builder.output(self.returned, "O_return")
            produced = True
        if not produced:
            raise ParseError("kernel produces no outputs (no return or *out assignment)")

    # -- expressions --------------------------------------------------------
    def _parse_expression(self, level: int = 0) -> int:
        """One binary-operator level of :data:`_PRECEDENCE`, left-associative."""
        if level == len(_PRECEDENCE):
            return self._parse_unary()
        value = self._parse_expression(level + 1)
        while self.token.text in _PRECEDENCE[level]:
            opcode = _BINARY_OPCODES[self.advance().text]
            value = self.builder.op(opcode, value, self._parse_expression(level + 1))
        return value

    def _parse_unary(self) -> int:
        token = self.token
        if token.kind == "SYMBOL" and token.text in ("-", "~"):
            self.advance()
            operand = self._parse_unary()
            return self.builder.op(OpCode.NEG if token.text == "-" else OpCode.NOT, operand)
        return self._parse_primary()

    def _parse_primary(self) -> int:
        token = self.advance()
        if token.kind == "NUMBER":
            try:
                value = int(token.text, 0)
            except ValueError:  # a decimal with a leading zero, such as 007
                raise ParseError(
                    f"invalid integer literal {token.text!r}", token.line, token.column
                ) from None
            return self.builder.const(value)
        if token.kind == "IDENT":
            if self.accept("SYMBOL", "("):
                return self._parse_call(token)
            if token.text not in self.symbols:
                raise ParseError(
                    f"use of undefined variable {token.text!r}", token.line, token.column
                )
            return self.symbols[token.text]
        if token.kind == "SYMBOL" and token.text == "(":
            value = self._parse_expression()
            self.expect("SYMBOL", ")")
            return value
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    def _parse_call(self, name_token: Token) -> int:
        name = name_token.text
        if name not in INTRINSICS:
            raise ParseError(
                f"unknown function {name!r} (supported intrinsics: "
                f"{', '.join(sorted(INTRINSICS))})",
                name_token.line,
                name_token.column,
            )
        opcode, arity = INTRINSICS[name]
        args: List[int] = []
        if not self.accept("SYMBOL", ")"):
            while True:
                args.append(self._parse_expression())
                if self.accept("SYMBOL", ")"):
                    break
                self.expect("SYMBOL", ",")
        if len(args) != arity:
            raise ParseError(
                f"{name} expects {arity} argument(s), got {len(args)}",
                name_token.line,
                name_token.column,
            )
        return self.builder.op(opcode, *args)


def lower_c_kernel(
    source: str, name: Optional[str] = None, run_optimizer: bool = True
) -> DFG:
    """Parse mini-C source straight into a fresh DFG (no caching).

    Parameters
    ----------
    source:
        Kernel source text (a single function, see module docstring).
    name:
        Override the kernel name (defaults to the C function name).
    run_optimizer:
        Apply the standard optimization pipeline to the lowered graph,
        mirroring what the HLS frontend would produce.

    Raises
    ------
    ParseError
        On the first lexical, syntactic or semantic error in source order:
        undefined variables, writes through non-output pointers, multiple
        ``return`` statements, or a kernel that produces no outputs.
    """
    dfg = _Parser(source).parse_kernel(name)
    return optimize(dfg) if run_optimizer else dfg


def parse_c_kernel(source: str, name: Optional[str] = None) -> DFG:
    """Parse and optimize a mini-C kernel into a DFG (cached by source hash).

    Parameters
    ----------
    source:
        Kernel source text (a single function, see module docstring).
    name:
        Override the kernel name (defaults to the C function name).

    Repeated calls with byte-identical source hit the process-wide
    :class:`~repro.frontend.cache.FrontendCache`, and a fresh
    :meth:`~repro.dfg.graph.DFG.copy` is returned each time so callers can
    annotate/transform freely.  Any edit to the source changes its hash and
    parses it again.  :func:`lower_c_kernel` is the uncached equivalent.
    """
    from .cache import default_frontend_cache

    return default_frontend_cache().dfg(source, name=name)
