"""Structural validation of DFGs.

The tool flow assumes a number of invariants that the frontends normally
guarantee; :func:`validate_dfg` checks them explicitly so that hand-built or
deserialized graphs fail early with a clear message rather than producing a
nonsensical schedule:

* the graph is a DAG (the linear overlay is feed-forward only);
* every operand reference resolves to an existing node;
* operand counts match opcode arity;
* outputs consume exactly one value and are not themselves consumed;
* there is at least one input and one output;
* every operation node is *live*, i.e. reaches some output (dead nodes would
  silently inflate the op count and the II).
"""

from __future__ import annotations

from typing import List, Set

from ..errors import DFGValidationError
from .graph import DFG
from .opcodes import OpCode


def validate_dfg(dfg: DFG, require_live: bool = True) -> None:
    """Validate structural invariants of a DFG.

    Parameters
    ----------
    dfg:
        The graph to check.
    require_live:
        When True (default), every operation node must reach an output.
        Transform passes that intentionally create dead nodes (before DCE)
        can set this to False.

    Raises
    ------
    DFGValidationError
        On the first violated invariant, with a message naming the node.
    """
    problems = collect_validation_errors(dfg, require_live=require_live)
    if problems:
        raise DFGValidationError(
            f"DFG {dfg.name!r} failed validation: " + "; ".join(problems)
        )


def collect_validation_errors(dfg: DFG, require_live: bool = True) -> List[str]:
    """Return a list of human-readable invariant violations (empty if valid)."""
    problems: List[str] = []

    if dfg.num_inputs == 0:
        problems.append("graph has no primary inputs")
    if dfg.num_outputs == 0:
        problems.append("graph has no primary outputs")

    # Operand arity and reference integrity.
    for node in dfg.nodes():
        for operand in node.operands:
            if operand not in dfg:
                problems.append(
                    f"node {node.name} references unknown operand {operand}"
                )
                continue
            producer = dfg.node(operand)
            if producer.is_output:
                problems.append(
                    f"node {node.name} consumes OUTPUT node {producer.name}"
                )
        expected = node.opcode.arity
        if node.opcode.is_compute or node.is_output:
            if len(node.operands) != expected:
                problems.append(
                    f"node {node.name} has {len(node.operands)} operands, "
                    f"expected {expected}"
                )
        if node.opcode in (OpCode.LOAD, OpCode.NOP, OpCode.PASS):
            problems.append(
                f"node {node.name} uses FU-level opcode {node.opcode.name}; "
                "these may not appear in a kernel DFG"
            )

    # Acyclicity.
    try:
        dfg.topological_order()
    except DFGValidationError as error:
        problems.append(str(error))
        return problems  # liveness below assumes a DAG

    # Outputs must be sinks.
    for output in dfg.outputs():
        if dfg.fanout(output.node_id):
            problems.append(f"output {output.name} has consumers")

    # Liveness: every operation reaches an output.
    if require_live:
        live = _live_nodes(dfg)
        for node in dfg.operations():
            if node.node_id not in live:
                problems.append(f"operation {node.name} does not reach any output")
        for node in dfg.inputs():
            if node.node_id not in live:
                problems.append(f"input {node.name} is unused")

    return problems


def _live_nodes(dfg: DFG) -> Set[int]:
    """Node ids reachable backwards from any output."""
    live: Set[int] = set()
    worklist = [o.node_id for o in dfg.outputs()]
    while worklist:
        node_id = worklist.pop()
        if node_id in live:
            continue
        live.add(node_id)
        worklist.extend(dfg.node(node_id).operands)
    return live
