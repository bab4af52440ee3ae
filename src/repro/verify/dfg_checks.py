"""DFG structural checks (family ``DFG``).

Reports :func:`repro.dfg.validate.dfg_problems`, the walk ``validate_dfg``
runs, as located, coded diagnostics on the graph the schedule claims to
implement.  The walk never raises and never assumes the graph is
well-formed: a corrupted graph (dangling operands, cycles) produces
diagnostics, not tracebacks.

Codes
-----
``DFG001``  graph has no primary inputs / outputs
``DFG002``  operand references an unknown node
``DFG003``  operand count does not match the opcode arity
``DFG004``  FU-level opcode (LOAD/NOP/PASS) inside a kernel DFG
``DFG005``  OUTPUT node is consumed by another node
``DFG006``  graph contains a cycle
``DFG007``  dead operation / unused input (never reaches an output)
"""

from __future__ import annotations

from functools import partial
from typing import List

from ..dfg.validate import dfg_problems
from .diagnostics import Diagnostic, pass_error

_error = partial(pass_error, "dfg")

#: The code of each kind of problem the walk reports.
_CODES = {
    "io": "DFG001",
    "dangling": "DFG002",
    "arity": "DFG003",
    "fu-opcode": "DFG004",
    "consumed-output": "DFG005",
    "cycle": "DFG006",
    "dead": "DFG007",
}


def run(ctx) -> List[Diagnostic]:
    """The ``dfg`` pass: the context's DFG verdict, which is derived once per
    node set (:attr:`~repro.verify.engine.VerifyContext.dfg_diagnostics`)
    and shared with the ``schedule`` pass that gates on it."""
    return list(ctx.dfg_diagnostics)


def check(dfg) -> List[Diagnostic]:
    """Every DFG check over one graph."""
    return [_error(_CODES[kind], message, node=node) for kind, message, node in dfg_problems(dfg)]
