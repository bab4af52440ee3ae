"""AST for the mini-C kernel frontend.

The original frontend built the DFG *while* parsing, which tied the cost of
every :func:`~repro.frontend.cparser.parse_c_kernel` call to a full re-parse.
This module is the intermediate representation that breaks that coupling: the
parser produces a :class:`KernelAST`, and lowering
(:func:`repro.frontend.cparser.lower_ast`) replays it into a fresh DFG.

All nodes are frozen dataclasses, so an AST can be shared between threads
and repeated lowerings without defensive copies.  Every expression
and statement carries its source position for diagnostics; positions are
excluded from :func:`ast_fingerprint`, which hashes only the structure that
lowering observes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple, Union


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IntLiteral:
    """Integer literal (decimal or hex), already converted to a value."""

    value: int
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Name:
    """Reference to a local variable or scalar parameter."""

    ident: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Unary:
    """Unary operation: ``op`` is ``-`` (negate) or ``~`` (bitwise not)."""

    op: str
    operand: "Expr"
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Binary:
    """Binary operation; ``op`` is one of ``+ - * << >> & ^ |``."""

    op: str
    lhs: "Expr"
    rhs: "Expr"
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Call:
    """Intrinsic call (``sqr``, ``abs``, ``min``, ``max``, ``muladd``, ...)."""

    func: str
    args: Tuple["Expr", ...]
    line: int = 0
    column: int = 0


Expr = Union[IntLiteral, Name, Unary, Binary, Call]


# ---------------------------------------------------------------------------
# statements and the kernel
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Param:
    """One function parameter; pointer parameters are kernel outputs."""

    name: str
    is_pointer: bool
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Declaration:
    """``int name = expr;`` — introduces (or shadows) a local value."""

    name: str
    expr: Expr
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Assignment:
    """``name = expr;`` or ``*name = expr;`` (the latter writes an output)."""

    target: str
    dereference: bool
    expr: Expr
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Return:
    """``return expr;`` — produces the ``O_return`` output."""

    expr: Expr
    line: int = 0
    column: int = 0


Stmt = Union[Declaration, Assignment, Return]


@dataclass(frozen=True)
class KernelAST:
    """A fully parsed mini-C kernel: name, parameter list and body."""

    name: str
    params: Tuple[Param, ...]
    body: Tuple[Stmt, ...]

    @property
    def input_params(self) -> Tuple[Param, ...]:
        """Scalar parameters — the kernel's primary inputs."""
        return tuple(p for p in self.params if not p.is_pointer)

    @property
    def output_params(self) -> Tuple[Param, ...]:
        """Pointer parameters — the kernel's outputs."""
        return tuple(p for p in self.params if p.is_pointer)


# ---------------------------------------------------------------------------
# structural fingerprint
# ---------------------------------------------------------------------------
def _structure(node) -> object:
    """Nested-tuple rendering of an AST without source positions."""
    if isinstance(node, IntLiteral):
        return ("int", node.value)
    if isinstance(node, Name):
        return ("name", node.ident)
    if isinstance(node, Unary):
        return ("unary", node.op, _structure(node.operand))
    if isinstance(node, Binary):
        return ("binary", node.op, _structure(node.lhs), _structure(node.rhs))
    if isinstance(node, Call):
        return ("call", node.func, tuple(_structure(a) for a in node.args))
    if isinstance(node, Param):
        return ("param", node.name, node.is_pointer)
    if isinstance(node, Declaration):
        return ("decl", node.name, _structure(node.expr))
    if isinstance(node, Assignment):
        return ("assign", node.target, node.dereference, _structure(node.expr))
    if isinstance(node, Return):
        return ("return", _structure(node.expr))
    if isinstance(node, KernelAST):
        return (
            "kernel",
            node.name,
            tuple(_structure(p) for p in node.params),
            tuple(_structure(s) for s in node.body),
        )
    raise TypeError(f"not an AST node: {node!r}")  # pragma: no cover


def ast_fingerprint(kernel: KernelAST) -> str:
    """Content hash of an AST's structure (source positions excluded).

    Two sources that differ only in comments, whitespace or layout produce
    the same fingerprint, so a downstream cache keyed on it survives purely
    cosmetic edits — the diagnostics-only information is all that is lost.
    """
    return hashlib.sha256(repr(_structure(kernel)).encode("utf-8")).hexdigest()
