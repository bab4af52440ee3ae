"""DFG transformation passes.

These are the small "compiler middle-end" passes the mapping flow applies
between frontend extraction and scheduling.  None of them are strictly needed
to map a clean hand-written kernel, but real frontend output (and the mini-C
parser in particular) benefits from them:

* :func:`dead_code_elimination` — drop operations that never reach an output.
* :func:`constant_folding` — evaluate operations whose operands are all
  constants at compile time.
* :func:`common_subexpression_elimination` — merge structurally identical
  operations (the paper's DFGs are SSA graphs, so this is a pure win).
* :func:`strength_reduce_squares` — rewrite ``MUL(x, x)`` as ``SQR(x)``,
  matching the node naming used in the paper's figures.

All passes are functional: they return a new :class:`DFG` and leave the input
untouched.  Node ids are re-numbered compactly in topological order.
:func:`optimize` composes them in two walks over the graph and one build,
and the passes stay its reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import DFGValidationError
from .graph import DFG
from .node import DFGNode, default_name
from .opcodes import OpCode
from .validate import validate_dfg

# Bound once: ``OpCode.X`` goes through ``EnumType.__getattr__`` per lookup.
_CONST = OpCode.CONST
_MUL = OpCode.MUL
_SQR = OpCode.SQR


def _port_name(node: DFGNode) -> str:
    """Preserve the port prefix of INPUT/OUTPUT nodes across graph rebuilds."""
    if node.is_input or node.is_output:
        return node.name.split("_N")[0]
    return ""

def _rebuild(
    dfg: DFG,
    keep: Optional[set] = None,
    replacements: Optional[Dict[int, int]] = None,
    name: Optional[str] = None,
) -> DFG:
    """Rebuild a DFG keeping only ``keep`` nodes and applying id replacements.

    ``replacements`` maps an old node id to the old node id that should be
    used instead (e.g. the surviving twin of a CSE pair).  Ids are compacted.
    """
    keep = keep if keep is not None else set(dfg.node_ids())
    replacements = replacements or {}

    def resolve(node_id: int) -> int:
        seen = set()
        while node_id in replacements:
            if node_id in seen:  # pragma: no cover - defensive
                raise DFGValidationError("cyclic replacement chain")
            seen.add(node_id)
            node_id = replacements[node_id]
        return node_id

    new = DFG(name=name or dfg.name)
    id_map: Dict[int, int] = {}
    for old_id in dfg.topological_order():
        old_id = resolve(old_id)
        if old_id in id_map or old_id not in keep:
            continue
        node = dfg.node(old_id)
        operands = tuple(id_map[resolve(o)] for o in node.operands)
        new_node = new.new_node(
            node.opcode, operands=operands, value=node.value, name=_port_name(node)
        )
        id_map[old_id] = new_node.node_id
    return new


def dead_code_elimination(dfg: DFG) -> DFG:
    """Remove operations (and constants) that do not reach any output."""
    live = set()
    worklist = [o.node_id for o in dfg.outputs()]
    while worklist:
        node_id = worklist.pop()
        if node_id in live:
            continue
        live.add(node_id)
        worklist.extend(dfg.node(node_id).operands)
    # Keep all primary inputs even if dead so the I/O signature is preserved;
    # the validator flags dead inputs separately if the caller cares.
    live.update(n.node_id for n in dfg.inputs())
    return _rebuild(dfg, keep=live)


def constant_folding(dfg: DFG) -> DFG:
    """Evaluate operations whose operands are all constants."""
    folded_values: Dict[int, int] = {
        n.node_id: n.value for n in dfg.constants() if n.value is not None
    }
    replacements: Dict[int, int] = {}
    new = DFG(name=dfg.name)
    id_map: Dict[int, int] = {}

    for old_id in dfg.topological_order():
        node = dfg.node(old_id)
        if node.is_operation and all(o in folded_values for o in node.operands):
            operand_values = [folded_values[o] for o in node.operands]
            folded_values[old_id] = node.opcode.evaluate(*operand_values)
            continue  # materialized lazily as a CONST if anyone non-foldable uses it
        operands = []
        for operand in node.operands:
            if operand in folded_values and operand not in id_map:
                const = new.new_node(OpCode.CONST, value=folded_values[operand])
                id_map[operand] = const.node_id
            operands.append(id_map[operand])
        new_node = new.new_node(
            node.opcode, operands=tuple(operands), value=node.value, name=_port_name(node)
        )
        id_map[old_id] = new_node.node_id
    return dead_code_elimination(new)


def common_subexpression_elimination(dfg: DFG) -> DFG:
    """Merge structurally identical operations.

    Two operations are identical if they share the opcode and operand ids
    (operand order is normalized for commutative opcodes).
    """
    replacements: Dict[int, int] = {}
    seen: Dict[Tuple, int] = {}
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        if not node.is_operation:
            continue
        operands = tuple(replacements.get(o, o) for o in node.operands)
        if node.opcode.is_commutative:
            operands = tuple(sorted(operands))
        key = (node.opcode, operands)
        if key in seen:
            replacements[node_id] = seen[key]
        else:
            seen[key] = node_id
    return _rebuild(dfg, replacements=replacements)


def strength_reduce_squares(dfg: DFG) -> DFG:
    """Rewrite ``MUL(x, x)`` as the unary ``SQR(x)`` used in the paper's DFGs."""
    new = DFG(name=dfg.name)
    id_map: Dict[int, int] = {}
    for old_id in dfg.topological_order():
        node = dfg.node(old_id)
        operands = tuple(id_map[o] for o in node.operands)
        if (
            node.opcode is OpCode.MUL
            and len(operands) == 2
            and operands[0] == operands[1]
        ):
            new_node = new.new_node(OpCode.SQR, operands=(operands[0],))
        else:
            new_node = new.new_node(
                node.opcode, operands=operands, value=node.value, name=_port_name(node)
            )
        id_map[old_id] = new_node.node_id
    return new


def optimize(dfg: DFG) -> DFG:
    """Run the standard pass pipeline used by the frontends.

    The result is, node for node, constant folding -> CSE -> square strength
    reduction -> DCE of the passes above, which stay its reference.  It is
    built in two walks instead of four rebuilds: :func:`_fold_and_mark`
    folds constants and marks liveness, then :func:`_emit_live` merges
    duplicates, reduces squares and builds the graph once, compact and all
    live.  The result is validated before returning.
    """
    rows, live = _fold_and_mark(dfg)
    result = _emit_live(dfg.name, rows, live)
    validate_dfg(result, require_live=False)
    return result


#: One row of the folded graph: the kept node (a placeholder CONST for a
#: folded value) and the rows of its operands.
_Row = Tuple[DFGNode, Tuple[int, ...]]


def _fold_and_mark(dfg: DFG) -> Tuple[List[_Row], List[bool]]:
    """Walk 1: :func:`constant_folding`'s graph as rows, and which are live.

    Every operation whose operands are all constants folds; a folded value
    becomes a CONST row just before its first consumer that does not fold,
    live or not, as :func:`constant_folding` places it.  Liveness is then
    marked backward from the outputs, and every input is kept, as
    :func:`dead_code_elimination` does.
    """
    folded: Dict[int, int] = {}  # node id -> value of a constant or folded operation
    row_of: Dict[int, int] = {}  # node id -> row holding its value
    rows: List[_Row] = []
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        operands = node.operands
        if node.is_operation and all(o in folded for o in operands):
            folded[node_id] = node.opcode.evaluate(*[folded[o] for o in operands])
            continue
        if node.is_const:
            folded[node_id] = node.value
        operand_rows = []
        for operand in operands:
            row = row_of.get(operand)
            if row is None:  # a folded operation's first consumer that does not fold
                row = row_of[operand] = len(rows)
                rows.append((DFGNode(0, _CONST, value=folded[operand]), ()))
            operand_rows.append(row)
        row_of[node_id] = len(rows)
        rows.append((node, tuple(operand_rows)))

    live = [False] * len(rows)
    stack = [row for row, (node, _) in enumerate(rows) if node.is_output or node.is_input]
    while stack:
        row = stack.pop()
        if not live[row]:
            live[row] = True
            stack.extend(rows[row][1])
    return rows, live


def _emit_live(name: str, rows: List[_Row], live: List[bool]) -> DFG:
    """Walk 2: build the live rows into one graph.

    Operations merge on ``(opcode, new operand ids)``, operands sorted for a
    commutative opcode, as :func:`common_subexpression_elimination` keys
    them.  ``MUL(x, x)`` is emitted as ``SQR(x)`` but keyed as ``MUL``: the
    reference merges before it reduces squares.
    """
    new = DFG(name=name)
    new_ids = [0] * len(rows)
    twins: Dict[Tuple[OpCode, Tuple[int, ...]], int] = {}
    for row, (node, operand_rows) in enumerate(rows):
        if not live[row]:
            continue
        operands = tuple([new_ids[r] for r in operand_rows])
        opcode = node.opcode
        if node.is_operation:
            key = (opcode, tuple(sorted(operands)) if opcode.is_commutative else operands)
            twin = twins.get(key)
            if twin is None:
                if opcode is _MUL and operands[0] == operands[1]:
                    twin = new.new_node(_SQR, operands=operands[:1]).node_id
                else:
                    twin = new.new_node(opcode, operands=operands).node_id
                twins[key] = twin
            new_ids[row] = twin
            continue
        port_name = _port_name(node)
        if not port_name and (node.is_input or node.is_output):
            # The reference rebuilds the graph again: an emptied port name
            # ("_Nx") comes back as the default name's prefix.
            port_name = default_name(0, opcode).split("_N")[0]
        new_ids[row] = new.new_node(
            opcode, operands=operands, value=node.value, name=port_name
        ).node_id
    return new
