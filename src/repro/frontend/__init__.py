"""Kernel capture frontends (the HLS-substitute layer).

The paper extracts DFGs from C kernels with the HercuLeS HLS tool.  This
package provides two interchangeable substitutes that produce the same
:class:`~repro.dfg.graph.DFG` IR:

* :mod:`repro.frontend.expr` — a symbolic tracing frontend: write the kernel
  as a plain Python function over :class:`~repro.frontend.expr.Value`
  operands and trace it.
* :mod:`repro.frontend.cparser` — a mini-C parser for straight-line compute
  kernels written in the style of the paper's Fig. 2a.

The mini-C frontend is *incremental*: it is staged into a lexer
(:mod:`repro.frontend.lexer`), an AST parser (:mod:`repro.frontend.syntax` /
:func:`~repro.frontend.cparser.parse_ast`) and a lowering pass, with the
lowered DFG memoised by source content hash in :mod:`repro.frontend.cache`.
Repeated :func:`parse_c_kernel` calls on unchanged source are near-free; see
``docs/compiler.md`` for the full picture.
"""

from .expr import Value, KernelTracer, trace_kernel
from .lexer import Token, source_hash, tokenize
from .syntax import KernelAST, ast_fingerprint
from .cparser import lower_ast, parse_ast, parse_c_kernel
from .cache import FrontendCache, FrontendCacheStats, default_frontend_cache

__all__ = [
    "Value",
    "KernelTracer",
    "trace_kernel",
    "Token",
    "tokenize",
    "source_hash",
    "KernelAST",
    "ast_fingerprint",
    "parse_ast",
    "lower_ast",
    "parse_c_kernel",
    "FrontendCache",
    "FrontendCacheStats",
    "default_frontend_cache",
]
