"""Data-flow-graph intermediate representation and analyses.

This package is the IR every other part of the tool flow speaks:

* :class:`~repro.dfg.graph.DFG` / :class:`~repro.dfg.node.DFGNode` — the graph.
* :class:`~repro.dfg.builder.DFGBuilder` — programmatic construction.
* :mod:`~repro.dfg.analysis` — ASAP/ALAP levels, depth,
  per-stage traffic (loads / computes / pass-throughs).
* :mod:`~repro.dfg.transforms` — DCE, constant folding, CSE, square
  strength-reduction, reduction rebalancing.
* :mod:`~repro.dfg.serialize` — JSON round-trip and DOT export.
"""

from .builder import DFGBuilder
from .graph import DFG
from .node import DFGEdge, DFGNode
from .opcodes import OpCode, parse_opcode
from .analysis import (
    alap_levels,
    asap_levels,
    asap_stage_assignment,
    dfg_depth,
    level_sets,
    stage_traffic,
    StageTraffic,
    value_lifetimes,
)
from .transforms import (
    common_subexpression_elimination,
    constant_folding,
    dead_code_elimination,
    optimize,
    rebalance_reductions,
    strength_reduce_squares,
)
from .serialize import from_dict, from_json, load, save, to_dict, to_dot, to_json
from .validate import collect_validation_errors, validate_dfg

__all__ = [
    "DFG",
    "DFGNode",
    "DFGEdge",
    "DFGBuilder",
    "OpCode",
    "parse_opcode",
    "asap_levels",
    "alap_levels",
    "asap_stage_assignment",
    "level_sets",
    "dfg_depth",
    "stage_traffic",
    "StageTraffic",
    "value_lifetimes",
    "dead_code_elimination",
    "constant_folding",
    "common_subexpression_elimination",
    "strength_reduce_squares",
    "rebalance_reductions",
    "optimize",
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
    "save",
    "load",
    "to_dot",
    "validate_dfg",
    "collect_validation_errors",
]
