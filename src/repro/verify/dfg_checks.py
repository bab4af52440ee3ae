"""DFG structural checks (family ``DFG``).

Generalises :mod:`repro.dfg.validate` into located, coded diagnostics: the
same invariants the frontends guarantee, re-checked on the graph the
schedule claims to implement.  Unlike ``validate_dfg`` this never raises and
never assumes the graph is well-formed — a corrupted graph (dangling
operands, cycles) must produce diagnostics, not tracebacks, so the checks
only walk ``node.operands`` and run their own Kahn toposort.

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

from collections import deque
from typing import Dict, List, Set

from .diagnostics import Diagnostic, Severity

_PASS = "dfg"


def _error(code: str, message: str, **location) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        pass_name=_PASS,
        **location,
    )


def run(ctx) -> List[Diagnostic]:
    """The ``dfg`` pass: the context's DFG verdict, which is derived once per
    node set (:attr:`~repro.verify.engine.VerifyContext.dfg_diagnostics`)
    and shared with the ``schedule`` pass that gates on it."""
    return list(ctx.dfg_diagnostics)


def check(dfg) -> List[Diagnostic]:
    """Every DFG check over one graph."""
    out: List[Diagnostic] = []

    if dfg.num_inputs == 0:
        out.append(_error("DFG001", "graph has no primary inputs"))
    if dfg.num_outputs == 0:
        out.append(_error("DFG001", "graph has no primary outputs"))

    dangling = False
    for node in dfg.nodes():
        for operand in node.operands:
            if operand not in dfg:
                dangling = True
                out.append(
                    _error(
                        "DFG002",
                        f"node {node.name} references unknown operand {operand}",
                        node=node.node_id,
                    )
                )
                continue
            if dfg.node(operand).is_output:
                out.append(
                    _error(
                        "DFG005",
                        f"node {node.name} consumes OUTPUT node "
                        f"{dfg.node(operand).name}",
                        node=node.node_id,
                    )
                )
        if node.opcode.is_compute or node.is_output:
            expected = node.opcode.arity
            if len(node.operands) != expected:
                out.append(
                    _error(
                        "DFG003",
                        f"node {node.name} has {len(node.operands)} operands, "
                        f"expected {expected}",
                        node=node.node_id,
                    )
                )
        if node.opcode.is_control:
            out.append(
                _error(
                    "DFG004",
                    f"node {node.name} uses FU-level opcode {node.opcode.name}",
                    node=node.node_id,
                )
            )

    cyclic_ids = _cycle_members(dfg)
    for node_id in sorted(cyclic_ids):
        out.append(
            _error(
                "DFG006",
                f"node {dfg.node(node_id).name} is part of a dependence cycle",
                node=node_id,
            )
        )

    # Liveness assumes an acyclic, reference-closed graph.
    if not cyclic_ids and not dangling:
        live = _live_nodes(dfg)
        for node in dfg.operations():
            if node.node_id not in live:
                out.append(
                    _error(
                        "DFG007",
                        f"operation {node.name} does not reach any output",
                        node=node.node_id,
                    )
                )
        for node in dfg.inputs():
            if node.node_id not in live:
                out.append(
                    _error(
                        "DFG007",
                        f"input {node.name} is unused",
                        node=node.node_id,
                    )
                )
    return out


def _cycle_members(dfg) -> Set[int]:
    """Node ids left over after a Kahn toposort (members of some cycle)."""
    indegree: Dict[int, int] = {node.node_id: 0 for node in dfg.nodes()}
    consumers: Dict[int, List[int]] = {node.node_id: [] for node in dfg.nodes()}
    for node in dfg.nodes():
        for operand in node.operands:
            if operand in indegree:
                indegree[node.node_id] += 1
                consumers[operand].append(node.node_id)
    ready = deque(node_id for node_id, deg in indegree.items() if deg == 0)
    visited = 0
    while ready:
        node_id = ready.popleft()
        visited += 1
        for consumer in consumers[node_id]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    return {node_id for node_id, deg in indegree.items() if deg > 0}


def _live_nodes(dfg) -> Set[int]:
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
