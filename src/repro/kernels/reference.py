"""Reference (golden) execution of kernel DFGs.

The cycle-accurate overlay simulator is verified end-to-end by comparing its
output stream against :func:`evaluate_dfg` on the same inputs: the DFG *is*
the functional specification, so evaluating it directly (in topological
order, with the same 32-bit wrap-around semantics as the FU ALU) gives the
golden result for any kernel, hand-written or generated.

Streams of positional blocks go through :class:`StreamEvaluator` instead:
one generated function per DFG that evaluates the whole stream.  The
interpretive :func:`evaluate_dfg` stays as the independent oracle it is
tested against.
"""

from __future__ import annotations

import random
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from ..dfg.graph import DFG
from ..dfg.opcodes import OP_EXPRESSIONS, OP_SEMANTICS, _to_signed32
from ..errors import KernelError

InputBlock = Union[Sequence[int], Mapping[str, int]]

K = TypeVar("K")
V = TypeVar("V")


def _resolve_inputs(dfg: DFG, inputs: InputBlock) -> Dict[int, int]:
    """Map primary-input node ids to concrete integer values.

    ``inputs`` may be a sequence (matched against the inputs in declaration
    order) or a mapping keyed by input port name (``"I0"``, ...); port names
    match the prefix of the node name before the ``_N<id>`` suffix.
    """
    input_nodes = dfg.inputs()
    values: Dict[int, int] = {}
    if isinstance(inputs, Mapping):
        by_port: Dict[str, int] = {}
        for node in input_nodes:
            port = node.name.split("_N")[0]
            by_port[port] = node.node_id
        for port, value in inputs.items():
            if port not in by_port:
                raise KernelError(
                    f"kernel {dfg.name!r} has no input port {port!r}; "
                    f"available: {sorted(by_port)}"
                )
            values[by_port[port]] = int(value)
        missing = [p for p, nid in by_port.items() if nid not in values]
        if missing:
            raise KernelError(f"missing values for input port(s) {sorted(missing)}")
    else:
        supplied = list(inputs)
        if len(supplied) != len(input_nodes):
            raise KernelError(
                f"kernel {dfg.name!r} has {len(input_nodes)} inputs, "
                f"got {len(supplied)} values"
            )
        for node, value in zip(input_nodes, supplied):
            values[node.node_id] = int(value)
    return values


def intermediate_values(dfg: DFG, inputs: InputBlock) -> Dict[int, int]:
    """Evaluate a kernel and return *every* node's value keyed by node id.

    This is the interpretive oracle: one :meth:`OpCode.evaluate` call per
    node, in topological order.  Useful for debugging simulator mismatches:
    the trace renderer can join these against the per-cycle FU activity to
    show where a value diverged.
    """
    values = _resolve_inputs(dfg, inputs)
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        if node.is_input:
            continue
        if node.is_const:
            values[node_id] = int(cast(int, node.value))
        elif node.is_output:
            values[node_id] = values[node.operands[0]]
        else:
            values[node_id] = node.opcode.evaluate(*(values[o] for o in node.operands))
    return values


def evaluate_dfg(dfg: DFG, inputs: InputBlock) -> List[int]:
    """Evaluate a kernel DFG on one block of input samples.

    Returns the list of output values in output-declaration order, computed
    with the same signed 32-bit wrap-around arithmetic the FU ALU model uses.
    """
    values = intermediate_values(dfg, inputs)
    return [values[o.node_id] for o in dfg.outputs()]


class IdentityMemo(Generic[K, V]):
    """One value built per live object, keyed by the object's identity.

    For keys a ``WeakKeyDictionary`` cannot hold: a :class:`DFG` is mutable
    and an ``OverlaySchedule`` is an unhashable (eq, non-frozen) dataclass.
    The memo keeps only a weak reference to each key, whose death callback
    evicts the entry, so values must not reference their key either.  The
    identity check on a hit guards against id reuse.  ``version``, when
    given, is read on every lookup, and a changed version rebuilds the
    value.  Entries are only ever replaced whole, so concurrent builders at
    worst duplicate work (every built value is valid).
    """

    def __init__(
        self, build: Callable[[K], V], version: Optional[Callable[[K], Hashable]] = None
    ):
        self._build = build
        self._version = version
        self._entries: Dict[int, Tuple["weakref.ref[Any]", Hashable, V]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __call__(self, key: K) -> V:
        ident = id(key)
        version = self._version(key) if self._version is not None else None
        entry = self._entries.get(ident)
        if entry is not None and entry[0]() is key and entry[1] == version:
            return entry[2]
        value = self._build(key)
        # The callback binds the dict itself: at interpreter exit it can run
        # after this module's globals have been cleared.
        entries = self._entries

        def evict(_ref: Any, _ident: int = ident) -> None:
            entries.pop(_ident, None)

        entries[ident] = (weakref.ref(key, evict), version, value)
        return value


class StreamEvaluator:
    """One DFG compiled to a function that evaluates a whole input stream.

    :func:`evaluate_dfg` re-derives the topological order and dispatches
    every node through :meth:`OpCode.evaluate` on every block.  This class
    generates, once per DFG, one Python function that loops over the
    stream with every node value in a local variable and every operation
    inlined as an expression (:data:`repro.dfg.opcodes.OP_EXPRESSIONS`; an
    opcode without one calls its :data:`~repro.dfg.opcodes.OP_SEMANTICS`
    entry).  Every input goes through ``int()`` and every operation result
    through the 32-bit wrap, a range test with the wrap itself out of line
    since values almost always stay in range, so results equal
    :func:`evaluate_dfg`'s (``tests/test_kernels_reference.py`` checks this
    on random graphs over every opcode and the wrap edges).

    The evaluator holds no reference to its DFG, so a memo entry
    (:data:`stream_evaluator`) dies with the graph.  Only positional
    (sequence) blocks are supported; mapping-style blocks go through
    :func:`evaluate_dfg`.
    """

    __slots__ = ("run", "unwrapped_outputs")

    def __init__(self, dfg: DFG):
        inputs = [node.node_id for node in dfg.inputs()]
        sources = [node.operands[0] for node in dfg.outputs()]
        boundary = {node.node_id for node in dfg.nodes() if node.is_input or node.is_const}
        #: Output positions fed directly by an input or a constant, whose
        #: values leave :attr:`run` unwrapped (as in :func:`evaluate_dfg`).
        self.unwrapped_outputs = tuple(
            index for index, source in enumerate(sources) if source in boundary
        )
        constants: List[str] = []
        body: List[str] = []
        fallbacks: List[Callable[..., int]] = []
        for node_id in dfg.topological_order():
            node = dfg.node(node_id)
            if node.is_input or node.is_output:
                continue
            if node.is_const:
                constants.append(f"    v{node_id} = {int(cast(int, node.value))}")
                continue
            operands = [f"v{o}" for o in node.operands]
            expression = OP_EXPRESSIONS.get(node.opcode)
            if expression is not None:
                value = expression.format(*operands)
            else:
                # Opcode without an expression template: call its raw
                # semantics (same wrap applied below).
                fallbacks.append(OP_SEMANTICS[node.opcode])
                value = f"_fallbacks[{len(fallbacks) - 1}]({', '.join(operands)})"
            body += [
                f"        v{node_id} = {value}",
                f"        if not -2147483648 <= v{node_id} <= 2147483647:",
                f"            v{node_id} = wrap(v{node_id})",
            ]
        width = len(inputs)
        lines = ["def _stream(blocks):", "    rows = []", "    append = rows.append"]
        lines += constants
        lines += [
            "    for block in blocks:",
            f"        if len(block) != {width}:",
            "            raise KernelError(",
            f'                f"kernel {{_name!r}} has {width} inputs, "',
            '                f"got {len(block)} values"',
            "            )",
        ]
        if inputs:
            targets = ", ".join(f"v{i}" for i in inputs) + ("," if width == 1 else "")
            lines.append(f"        {targets} = block")
            lines += [f"        v{i} = int(v{i})" for i in inputs]
        lines += body
        lines += [
            "        append([" + ", ".join(f"v{source}" for source in sources) + "])",
            "    return rows",
        ]
        namespace: Dict[str, Any] = {
            "wrap": _to_signed32,
            "_fallbacks": fallbacks,
            "_name": dfg.name,
            "KernelError": KernelError,
            "min": min,
            "max": max,
            "abs": abs,
        }
        exec(  # noqa: S102 - generated from the DFG, no external input
            compile("\n".join(lines), f"<stream:{dfg.name}>", "exec"), namespace
        )
        #: ``run(blocks)``: the output rows of a stream of positional blocks.
        self.run: Callable[[Iterable[Sequence[int]]], List[List[int]]] = namespace["_stream"]


#: The compiled :class:`StreamEvaluator` of a live DFG, built on first use
#: and rebuilt when the DFG gains nodes.
stream_evaluator: IdentityMemo[DFG, StreamEvaluator] = IdentityMemo(StreamEvaluator, version=len)


def reference_outputs(dfg: DFG, blocks: Iterable[InputBlock]) -> List[List[int]]:
    """Evaluate a kernel on a stream of input blocks (one result per block).

    A stream of positional blocks runs through the DFG's memoised
    :class:`StreamEvaluator`; a stream with any mapping block is evaluated
    block by block with :func:`evaluate_dfg`.
    """
    blocks = list(blocks)
    # One subclass check per distinct block type: an ``isinstance`` check
    # against the ``Mapping`` ABC per block costs about as much as
    # evaluating a small block.
    if blocks and not any(issubclass(kind, Mapping) for kind in set(map(type, blocks))):
        return stream_evaluator(dfg).run(cast(List[Sequence[int]], blocks))
    return [evaluate_dfg(dfg, block) for block in blocks]


def random_input_blocks(
    dfg: DFG,
    num_blocks: int,
    seed: int = 0,
    low: int = -64,
    high: int = 64,
) -> List[List[int]]:
    """Generate a deterministic stream of random input blocks for a kernel.

    Values are kept small by default so that long multiply chains stay well
    inside the 32-bit range most of the time; wrap-around is still exercised
    by the dedicated ALU tests.
    """
    if num_blocks < 0:
        raise KernelError("num_blocks must be non-negative")
    rng = random.Random(seed)
    width = dfg.num_inputs
    return [[rng.randint(low, high) for _ in range(width)] for _ in range(num_blocks)]

