"""DFG serialization: JSON round-trip, content hashing and Graphviz DOT export.

The JSON format is intentionally simple and stable so that DFGs extracted by
an external HLS flow (the paper used HercuLeS) can be dropped into the tool
flow as files: a list of node records with ``id``, ``op``, ``operands`` and
optional ``name`` / ``value`` fields.

The same canonical JSON doubles as the definition of DFG *identity* for the
compile cache: :func:`dfg_fingerprint` hashes :func:`canonical_json`, so two
structurally identical DFG copies share every cached compilation while any
edit — node ids, opcodes, operand wiring, names, even a constant's value —
produces a different key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Union

from ..errors import DFGValidationError
from .graph import DFG
from .node import DFGNode
from .opcodes import OpCode, parse_opcode
from .validate import validate_dfg

#: Each opcode's serialized text (``OpCode.value`` is a Python-level
#: descriptor call; this runs for every node of every fingerprint).
_OP_TEXT = {op: op.value for op in OpCode}


def to_dict(dfg: DFG) -> Dict[str, Any]:
    """Convert a DFG into a JSON-serializable dictionary."""
    return {
        "name": dfg.name,
        "nodes": [
            {
                "id": node.node_id,
                "op": _OP_TEXT[node.opcode],
                "operands": list(node.operands),
                "name": node.name,
                **({"value": node.value} if node.is_const else {}),
            }
            for node in dfg.nodes()
        ],
    }


def canonical_json(dfg: DFG) -> str:
    """Key-sorted, whitespace-free JSON rendering — the canonical DFG form."""
    return json.dumps(to_dict(dfg), sort_keys=True, separators=(",", ":"))


def dfg_fingerprint(dfg: DFG) -> str:
    """Stable content hash of a DFG (independent of object identity).

    This is the DFG-level component of every compile-cache key; see
    :mod:`repro.engine.cache` and ``docs/compiler.md``.  It is memoised in
    :meth:`DFG.derived` under the graph's name, so the graph's copies hash
    once between them, and a copy or rename under another name hashes
    again.
    """
    derived = dfg.derived()
    name = dfg.name
    cached = derived.fingerprint
    if cached is not None and cached[0] == name:
        return cached[1]
    digest = hashlib.sha256(canonical_json(dfg).encode("utf-8")).hexdigest()
    derived.fingerprint = (name, digest)
    return digest


def from_dict(data: Dict[str, Any], validate: bool = True) -> DFG:
    """Reconstruct a DFG from :func:`to_dict` output (or hand-written JSON)."""
    if "nodes" not in data:
        raise DFGValidationError("DFG dictionary is missing the 'nodes' list")
    dfg = DFG(name=data.get("name", "kernel"))
    records: List[Dict[str, Any]] = list(data["nodes"])
    # Nodes may be listed in any order; insert in dependency order.
    pending = {int(r["id"]): r for r in records}
    if len(pending) != len(records):
        raise DFGValidationError("duplicate node ids in DFG dictionary")
    inserted: set = set()
    progress = True
    while pending and progress:
        progress = False
        for node_id in sorted(pending):
            record = pending[node_id]
            operands = [int(o) for o in record.get("operands", [])]
            if any(o not in inserted for o in operands):
                continue
            dfg.add_node(
                DFGNode(
                    node_id=node_id,
                    opcode=parse_opcode(str(record["op"])),
                    operands=tuple(operands),
                    name=record.get("name", ""),
                    value=record.get("value"),
                )
            )
            inserted.add(node_id)
            del pending[node_id]
            progress = True
    if pending:
        raise DFGValidationError(
            f"could not resolve operands for nodes {sorted(pending)} "
            "(missing producers or a cycle)"
        )
    if validate:
        validate_dfg(dfg)
    return dfg


def to_json(dfg: DFG) -> str:
    """Serialize a DFG to a JSON string."""
    return json.dumps(to_dict(dfg), indent=2)


def from_json(text: Union[str, bytes], validate: bool = True) -> DFG:
    """Parse a DFG from a JSON string."""
    return from_dict(json.loads(text), validate=validate)


def save(dfg: DFG, path: str) -> None:
    """Write a DFG to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(dfg))


def load(path: str, validate: bool = True) -> DFG:
    """Read a DFG from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_json(handle.read(), validate=validate)


def to_dot(dfg: DFG, levels: bool = True) -> str:
    """Render the DFG in Graphviz DOT format (paper Fig. 2b / Fig. 4 style).

    With ``levels=True`` nodes of the same ASAP level are placed on the same
    rank, mirroring the horizontal scheduling levels shown in the paper.
    """
    from .analysis import asap_levels  # local import to avoid a cycle

    lines = [f'digraph "{dfg.name}" {{', "  rankdir=TB;", "  node [shape=box];"]
    for node in dfg.nodes():
        shape = "ellipse" if (node.is_input or node.is_output) else "box"
        label = node.name if not node.is_const else f"{node.value}"
        lines.append(f'  n{node.node_id} [label="{label}", shape={shape}];')
    for edge in dfg.edges():
        lines.append(f"  n{edge.producer} -> n{edge.consumer};")
    if levels:
        by_level: Dict[int, List[int]] = {}
        for node_id, level in asap_levels(dfg).items():
            by_level.setdefault(level, []).append(node_id)
        for level in sorted(by_level):
            members = " ".join(f"n{i};" for i in sorted(by_level[level]))
            lines.append(f"  {{ rank=same; {members} }}")
    lines.append("}")
    return "\n".join(lines)
