"""Reference (golden) execution of kernel DFGs.

The cycle-accurate overlay simulator is verified end-to-end by comparing its
output stream against :func:`evaluate_dfg` on the same inputs: the DFG *is*
the functional specification, so evaluating it directly (in topological
order, with the same 32-bit wrap-around semantics as the FU ALU) gives the
golden result for any kernel, hand-written or generated.

Streams of positional blocks go through :class:`StreamEvaluator` instead:
one generated function per DFG that evaluates the whole stream.  The
interpretive :func:`evaluate_dfg` stays as the independent oracle it is
tested against.  :class:`VectorStreamEvaluator` is the same walk emitted as
numpy column expressions (``reference_outputs(..., vectorized=True)``),
which every verified run's check uses once the process has loaded numpy
(:func:`numpy_loaded`); numpy is imported only when one is built.

An output is a 32-bit word, so every output value is wrapped to signed 32
bits, also one that an input feeds straight through.
"""

from __future__ import annotations

import importlib
import random
import sys
import types
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
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
from ..dfg.opcodes import OP_EXPRESSIONS, OP_VECTOR_EXPRESSIONS, _to_signed32
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
            values[node_id] = _to_signed32(values[node.operands[0]])
        else:
            values[node_id] = node.opcode.evaluate(*(values[o] for o in node.operands))
    return values


def evaluate_dfg(dfg: DFG, inputs: InputBlock) -> List[int]:
    """Evaluate a kernel DFG on one block of input samples.

    Returns the list of output values in output-declaration order, computed
    with the same signed 32-bit wrap-around arithmetic the FU ALU model uses
    (an output is a 32-bit word, so one fed straight by an input wraps too).
    """
    values = intermediate_values(dfg, inputs)
    return [values[o.node_id] for o in dfg.outputs()]


class IdentityMemo(Generic[K, V]):
    """One value built per live object, keyed by the object's identity.

    For keys a ``WeakKeyDictionary`` cannot hold: an ``OverlaySchedule`` is
    an unhashable (eq, non-frozen) dataclass.  The memo keeps only a weak
    reference to each key, whose death callback evicts the entry, so values
    must not reference their key either.  The identity check on a hit
    guards against id reuse.  Entries are only ever replaced whole, so
    concurrent builders at worst duplicate work (every built value is
    valid).
    """

    def __init__(self, build: Callable[[K], V]):
        self._build = build
        self._entries: Dict[int, Tuple["weakref.ref[Any]", V]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __call__(self, key: K) -> V:
        ident = id(key)
        entry = self._entries.get(ident)
        if entry is not None and entry[0]() is key:
            return entry[1]
        value = self._build(key)
        # The callback binds the dict itself: at interpreter exit it can run
        # after this module's globals have been cleared.
        entries = self._entries

        def evict(_ref: Any, _ident: int = ident) -> None:
            entries.pop(_ident, None)

        entries[ident] = (weakref.ref(key, evict), value)
        return value


def _derived_evaluator(dfg: DFG, field: str, build: Callable[[DFG], V]) -> V:
    """The evaluator ``build`` makes of ``dfg``, memoised in
    :meth:`DFG.derived` as ``field``.

    Every copy of a graph shares it, and a graph that gains nodes builds a
    new one.  It is kept under the graph's name, since its errors name the
    kernel, so a copy or rename under another name builds again.
    Concurrent callers may each build one; every built evaluator is valid.
    """
    derived = dfg.derived()
    name = dfg.name
    cached = getattr(derived, field)
    if cached is not None and cached[0] == name:
        return cast(V, cached[1])
    evaluator = build(dfg)
    setattr(derived, field, (name, evaluator))
    return evaluator


#: Exact signed 32-bit two's-complement wrap of a Python int expression.
_WRAP = "(({0} + 2147483648) & 4294967295) - 2147483648"


class StreamEvaluator:
    """One DFG compiled to a function that evaluates a whole input stream.

    :func:`evaluate_dfg` re-derives the topological order and dispatches
    every node through :meth:`OpCode.evaluate` on every block.  This class
    generates, once per DFG, one Python function that loops over the
    stream with every node value in a local variable and every operation
    inlined as an expression (:data:`repro.dfg.opcodes.OP_EXPRESSIONS`).
    Every input goes through ``int()`` and every operation result, and
    every output an input or a constant feeds, through the 32-bit wrap: a
    range test, with the wrap inlined in the branch an out-of-range value
    takes.  So results equal :func:`evaluate_dfg`'s
    (``tests/test_kernels_reference.py`` checks this on random graphs over
    every opcode and the wrap edges).

    :func:`stream_evaluator` builds one per node set, shared by the
    graph's copies.  The evaluator holds no reference to its DFG.  Only
    positional (sequence) blocks are supported; mapping-style blocks go
    through :func:`evaluate_dfg`.
    """

    __slots__ = ("run",)

    def __init__(self, dfg: DFG):
        inputs = [node.node_id for node in dfg.inputs()]
        sources = [node.operands[0] for node in dfg.outputs()]
        # Operation results are wrapped already; an output fed straight by an
        # input or a constant is wrapped where the row is built.
        boundary = {node.node_id for node in dfg.nodes() if node.is_input or node.is_const}
        outputs = [
            f"v{source} if -2147483648 <= v{source} <= 2147483647 else "
            + _WRAP.format(f"v{source}")
            if source in boundary
            else f"v{source}"
            for source in sources
        ]
        constants: List[str] = []
        body: List[str] = []
        for node_id in dfg.topological_order():
            node = dfg.node(node_id)
            if node.is_input or node.is_output:
                continue
            if node.is_const:
                constants.append(f"    v{node_id} = {int(cast(int, node.value))}")
                continue
            value = OP_EXPRESSIONS[node.opcode].format(*(f"v{o}" for o in node.operands))
            body += [
                f"        v{node_id} = {value}",
                f"        if not -2147483648 <= v{node_id} <= 2147483647:",
                f"            v{node_id} = " + _WRAP.format(f"v{node_id}"),
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
            "        append([" + ", ".join(outputs) + "])",
            "    return rows",
        ]
        namespace: Dict[str, Any] = {
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


def stream_evaluator(dfg: DFG) -> StreamEvaluator:
    """The compiled :class:`StreamEvaluator` of a DFG, built on first use and
    shared by its copies (see :func:`_derived_evaluator`)."""
    return _derived_evaluator(dfg, "stream_evaluator", StreamEvaluator)


#: Exact signed 32-bit two's-complement wrap of an ``int64`` numpy expression.
VECTOR_WRAP = "(({0} & 4294967295) ^ 2147483648) - 2147483648"


def import_numpy() -> Any:
    """The numpy module, or ``None`` when the optional dependency is absent."""
    try:
        return importlib.import_module("numpy")
    except ImportError:
        return None


def numpy_loaded() -> bool:
    """Whether this process has already imported numpy, asked without
    importing it: a module object in ``sys.modules``, not a ``None`` stub
    that blocks the import."""
    return isinstance(sys.modules.get("numpy"), types.ModuleType)


def compile_vector_plan(np: Any, source: Optional[str], filename: str) -> Any:
    """The ``_vplan`` function that ``source`` defines, or ``None`` when there
    is no source or no numpy."""
    if source is None or np is None:
        return None
    namespace: Dict[str, Any] = {"np": np}
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - generated code
    return namespace["_vplan"]


def int64_inputs(
    np: Any, blocks: Sequence[Sequence[int]], width: int, name: str
) -> Optional[Any]:
    """The stream as one read-only ``int64`` array of shape ``(blocks,
    width)``, or ``None`` when numpy cannot give exact answers on it.

    Exactness needs every operand in signed 32-bit range: the worst ``int64``
    intermediate of one operation on such operands is ``2**62 + 2**31`` (a
    MULADD).  Plans wrap every result and constants are 32-bit words by
    construction, so only the inputs need a check: ``None`` comes back when
    numpy is missing, the stream is empty or not numeric, or an input lies
    outside that range.  A block of the wrong width raises the scalar
    evaluator's :class:`~repro.errors.KernelError`.  The array is
    read-only, so one conversion can serve both the batched engine's value
    plane and its check (:func:`vector_rows` takes it as checked).
    """
    if np is None:
        return None
    try:
        array = np.array(blocks, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        array = None
    if array is None or array.ndim != 2 or array.shape[1] != width:
        for block in blocks:
            if len(block) != width:
                raise KernelError(
                    f"kernel {name!r} has {width} inputs, got {len(block)} values"
                )
        return None
    if array.size == 0:
        return None
    if int(array.min()) < -2147483648 or int(array.max()) > 2147483647:
        return None
    array.flags.writeable = False
    return array


def vector_rows(
    np: Any, plan: Any, blocks: Sequence[Sequence[int]], width: int, name: str
) -> Optional[List[List[int]]]:
    """Output rows of ``plan`` over a stream, or ``None`` to ask for the scalar
    path.

    ``plan(inputs)`` takes the stream as the array :func:`int64_inputs`
    makes of it and returns a column, or a plain int, per output.
    ``blocks`` is the stream, or that array already made, which runs as it
    is: it was converted and range-checked when it was made.  ``None``
    comes back when the plan is missing or :func:`int64_inputs` gives
    ``None``.
    """
    if plan is None:
        return None
    array = blocks if isinstance(blocks, np.ndarray) else int64_inputs(np, blocks, width, name)
    if array is None:
        return None
    num_blocks = array.shape[0]
    columns = [
        out if isinstance(out, np.ndarray) else np.full(num_blocks, int(out), dtype=np.int64)
        for out in plan(array)
    ]
    rows: List[List[int]] = np.stack(columns, axis=1).tolist()
    return rows


def _vector_source(dfg: DFG) -> Optional[str]:
    """``_vplan`` for a DFG: one numpy expression per node, each wrapped."""
    sources = [node.operands[0] for node in dfg.outputs()]
    if not sources:
        return None
    lines = ["def _vplan(inputs):"]
    for index, node in enumerate(dfg.inputs()):
        lines.append(f"    v{node.node_id} = inputs[:, {index}]")
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        if node.is_input or node.is_output:
            continue
        if node.is_const:
            lines.append(f"    v{node_id} = {int(cast(int, node.value))}")
            continue
        template = OP_VECTOR_EXPRESSIONS.get(node.opcode)
        if template is None:
            return None
        lines.append(f"    v{node_id} = " + template.format(*[f"v{o}" for o in node.operands]))
        lines.append(f"    v{node_id} = " + VECTOR_WRAP.format(f"v{node_id}"))
    lines.append("    return (" + ", ".join(f"v{source}" for source in sources) + ",)")
    return "\n".join(lines)


class VectorStreamEvaluator:
    """One DFG compiled to numpy column expressions over a whole stream.

    The numpy counterpart of :class:`StreamEvaluator`: every node value is
    an ``int64`` array over the block axis, computed by its
    :data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS` entry and wrapped to 32
    bits, so a node costs one expression per stream, not one statement per
    block.  :meth:`run` returns ``None`` whenever numpy cannot give the
    exact answer (see :func:`vector_rows`), and the caller falls back to the
    scalar evaluator.  Building one imports numpy; without it the evaluator
    always answers ``None``.  Like :class:`StreamEvaluator` it is built once
    per node set (:func:`vector_stream_evaluator`) and holds no reference to
    its DFG.
    """

    __slots__ = ("_np", "_plan", "_width", "_name")

    def __init__(self, dfg: DFG):
        self._np = import_numpy()
        self._plan = compile_vector_plan(self._np, _vector_source(dfg), f"<vstream:{dfg.name}>")
        self._width = dfg.num_inputs
        self._name = dfg.name

    def run(self, blocks: Sequence[Sequence[int]]) -> Optional[List[List[int]]]:
        """The output rows of a stream of positional blocks (or of its
        :func:`int64_inputs` array), or ``None``."""
        return vector_rows(self._np, self._plan, blocks, self._width, self._name)


def vector_stream_evaluator(dfg: DFG) -> VectorStreamEvaluator:
    """The :class:`VectorStreamEvaluator` of a DFG, built on first use and
    shared by its copies (see :func:`_derived_evaluator`)."""
    return _derived_evaluator(dfg, "vector_stream_evaluator", VectorStreamEvaluator)


def reference_outputs(
    dfg: DFG, blocks: Iterable[InputBlock], vectorized: bool = False, inputs: Any = None
) -> List[List[int]]:
    """Evaluate a kernel on a stream of input blocks (one result per block).

    A stream of positional blocks runs through the DFG's memoised
    :class:`StreamEvaluator`, or with ``vectorized=True`` through its
    :class:`VectorStreamEvaluator` where numpy gives the exact answer; a
    stream with any mapping block is evaluated block by block with
    :func:`evaluate_dfg`.  Every path gives the same rows.  ``inputs`` is
    the array :func:`int64_inputs` already made of ``blocks``, if any; the
    vectorized path then runs on it as it is, without listing or scanning
    ``blocks``.
    """
    if vectorized and inputs is not None:
        rows = vector_stream_evaluator(dfg).run(inputs)
        if rows is not None:
            return rows
    blocks = list(blocks)
    # One subclass check per distinct block type: an ``isinstance`` check
    # against the ``Mapping`` ABC per block costs about as much as
    # evaluating a small block.
    if blocks and not any(issubclass(kind, Mapping) for kind in set(map(type, blocks))):
        positional = cast(List[Sequence[int]], blocks)
        if vectorized and inputs is None:
            rows = vector_stream_evaluator(dfg).run(positional)
            if rows is not None:
                return rows
        return stream_evaluator(dfg).run(positional)
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

    Each value is ``low + rng._randbelow(high - low + 1)``, which is what
    ``rng.randint(low, high)`` returns, in one call instead of three.
    ``_randbelow`` is private to CPython's ``random``: where it is missing,
    the bounds are not plain ints, or the range is empty (``randint``
    raises ``ValueError``), every value goes through ``randint``.
    """
    if num_blocks < 0:
        raise KernelError("num_blocks must be non-negative")
    rng = random.Random(seed)
    width = dfg.num_inputs
    span = high - low + 1
    below = getattr(rng, "_randbelow", None)
    if below is None or type(span) is not int or span < 1:
        return [[rng.randint(low, high) for _ in range(width)] for _ in range(num_blocks)]
    return [[low + below(span) for _ in range(width)] for _ in range(num_blocks)]

