"""Structural validation of DFGs.

The tool flow assumes a number of invariants that the frontends normally
guarantee; :func:`validate_dfg` checks them explicitly so that hand-built or
deserialized graphs fail early with a clear message rather than producing a
nonsensical schedule:

* there is at least one input and one output;
* every operand reference resolves to an existing node;
* operand counts match opcode arity;
* no FU-level opcode (LOAD/NOP/PASS) appears in a kernel;
* outputs are not themselves consumed;
* the graph is a DAG (the linear overlay is feed-forward only);
* every operation node is *live*, i.e. reaches some output (dead nodes would
  silently inflate the op count and the II).

:func:`dfg_problems` is the one walk behind both :func:`validate_dfg` and the
verifier's ``dfg`` pass (:mod:`repro.verify.dfg_checks`, which maps each
problem kind to a diagnostic code).  It reads only ``node.operands`` and runs
its own Kahn toposort, never the graph's consumer index or memoised order,
so a graph edited behind :meth:`~repro.dfg.graph.DFG.add_node` (a dangling
operand, a cycle) yields problems, not tracebacks.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DFGValidationError
from .graph import DFG

#: ``(kind, message, node id or None)``; the kinds are ``io``, ``dangling``,
#: ``consumed-output``, ``arity``, ``fu-opcode``, ``cycle`` and ``dead``.
Problem = Tuple[str, str, Optional[int]]


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
        If any invariant is violated, with a message naming each problem.
    """
    problems = collect_validation_errors(dfg, require_live=require_live)
    if problems:
        raise DFGValidationError(
            f"DFG {dfg.name!r} failed validation: " + "; ".join(problems)
        )


def collect_validation_errors(dfg: DFG, require_live: bool = True) -> List[str]:
    """Return a list of human-readable invariant violations (empty if valid).

    A cycle is one line for the whole graph, however many nodes it holds up.
    """
    problems = dfg_problems(dfg, require_live=require_live)
    messages = [message for kind, message, _ in problems if kind != "cycle"]
    if len(messages) < len(problems):
        messages.append(f"DFG {dfg.name!r} contains a cycle")
    return messages


def dfg_problems(dfg: DFG, require_live: bool = True) -> List[Problem]:
    """Every invariant violation of ``dfg`` as ``(kind, message, node)``."""
    problems: List[Problem] = []

    if dfg.num_inputs == 0:
        problems.append(("io", "graph has no primary inputs", None))
    if dfg.num_outputs == 0:
        problems.append(("io", "graph has no primary outputs", None))

    dangling = False
    for node in dfg.nodes():
        for operand in node.operands:
            if operand not in dfg:
                dangling = True
                message = f"node {node.name} references unknown operand {operand}"
                problems.append(("dangling", message, node.node_id))
            elif dfg.node(operand).is_output:
                message = f"node {node.name} consumes OUTPUT node {dfg.node(operand).name}"
                problems.append(("consumed-output", message, node.node_id))
        arity = node.opcode.arity
        if (node.opcode.is_compute or node.is_output) and len(node.operands) != arity:
            message = f"node {node.name} has {len(node.operands)} operands, expected {arity}"
            problems.append(("arity", message, node.node_id))
        if node.opcode.is_control:
            message = f"node {node.name} uses FU-level opcode {node.opcode.name}"
            problems.append(("fu-opcode", message, node.node_id))

    cyclic = _cycle_members(dfg)
    for node_id in sorted(cyclic):
        message = f"node {dfg.node(node_id).name} is part of a dependence cycle"
        problems.append(("cycle", message, node_id))

    # Liveness assumes an acyclic, reference-closed graph.
    if require_live and not cyclic and not dangling:
        live = _live_nodes(dfg)
        for node in dfg.operations():
            if node.node_id not in live:
                message = f"operation {node.name} does not reach any output"
                problems.append(("dead", message, node.node_id))
        for node in dfg.inputs():
            if node.node_id not in live:
                problems.append(("dead", f"input {node.name} is unused", node.node_id))
    return problems


def _cycle_members(dfg: DFG) -> Set[int]:
    """Node ids on a dependence cycle over ``node.operands``: the members of
    a strongly connected component of two or more nodes, or of a self-loop.

    A Kahn toposort leaves over the members of every cycle and the nodes
    downstream of one; of those, the members are the nodes that reach
    themselves.  Only a cyclic graph leaves anything over.
    """
    indegree: Dict[int, int] = {node.node_id: 0 for node in dfg.nodes()}
    consumers: Dict[int, List[int]] = {node_id: [] for node_id in indegree}
    for node in dfg.nodes():
        for operand in node.operands:
            if operand in indegree:
                indegree[node.node_id] += 1
                consumers[operand].append(node.node_id)
    ready = deque(node_id for node_id, degree in indegree.items() if degree == 0)
    while ready:
        for consumer in consumers[ready.popleft()]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    left = {node_id for node_id, degree in indegree.items() if degree > 0}

    def reaches_itself(start: int) -> bool:
        seen: Set[int] = set()
        stack = list(consumers[start])
        while stack:
            node_id = stack.pop()
            if node_id == start:
                return True
            if node_id in left and node_id not in seen:
                seen.add(node_id)
                stack.extend(consumers[node_id])
        return False

    return {node_id for node_id in left if reaches_itself(node_id)}


def _live_nodes(dfg: DFG) -> Set[int]:
    """Node ids reachable backwards from any output."""
    live: Set[int] = set()
    worklist = [output.node_id for output in dfg.outputs()]
    while worklist:
        node_id = worklist.pop()
        if node_id in live:
            continue
        live.add(node_id)
        worklist.extend(dfg.node(node_id).operands)
    return live
