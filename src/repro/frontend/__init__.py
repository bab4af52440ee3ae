"""Kernel capture frontends (the HLS-substitute layer).

The paper extracts DFGs from C kernels with the HercuLeS HLS tool.  This
package provides two interchangeable substitutes that produce the same
:class:`~repro.dfg.graph.DFG` IR:

* :mod:`repro.frontend.expr` — a symbolic tracing frontend: write the kernel
  as a plain Python function over :class:`~repro.frontend.expr.Value`
  operands and trace it.
* :mod:`repro.frontend.cparser` — a mini-C parser for straight-line compute
  kernels written in the style of the paper's Fig. 2a.

The mini-C parser builds the DFG in one pass over the tokens of
:mod:`repro.frontend.lexer` (:func:`lower_c_kernel`), and
:mod:`repro.frontend.cache` memoises the lowered DFG by source content hash.
Repeated :func:`parse_c_kernel` calls on unchanged source are near-free; see
``docs/compiler.md`` for the full picture.
"""

from .expr import Value, KernelTracer, trace_kernel
from .lexer import Token, source_hash, tokenize
from .cparser import lower_c_kernel, parse_c_kernel
from .cache import FrontendCache, FrontendCacheStats, default_frontend_cache

__all__ = [
    "Value",
    "KernelTracer",
    "trace_kernel",
    "Token",
    "tokenize",
    "source_hash",
    "lower_c_kernel",
    "parse_c_kernel",
    "FrontendCache",
    "FrontendCacheStats",
    "default_frontend_cache",
]
