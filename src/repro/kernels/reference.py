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
bits, also one that an input feeds straight through.  The generated planes
wrap any other value only where :class:`~repro.dfg.opcodes.IntervalWalk`
puts a wrap (before a signed-word read, before an operation that could
leave ``int64``, and on the scalar plane past ``2**62``): every other value
is congruent to its word modulo ``2**32``, which is all the other
operations read, so the outputs stay exact.
"""

from __future__ import annotations

import importlib
import random
import sys
import types
import weakref
from itertools import chain
from math import isqrt
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
from ..dfg.opcodes import (
    OP_EXPRESSIONS,
    OP_VECTOR_EXPRESSIONS,
    IntervalWalk,
    OpCode,
    _to_signed32,
)
from ..errors import KernelError

InputBlock = Union[Sequence[int], Mapping[str, int]]

K = TypeVar("K")
V = TypeVar("V")

# Bound once: ``OpCode.X`` goes through ``EnumType.__getattr__`` per lookup.
_CONST = OpCode.CONST


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


#: The scalar plane's wrap of variable ``{0}`` in place: a range test, with
#: the exact signed 32-bit two's-complement wrap in the branch an
#: out-of-range value takes.
_WRAP = (
    "if not -2147483648 <= {0} <= 2147483647: "
    "{0} = (({0} + 2147483648) & 4294967295) - 2147483648"
)


def _dfg_plane(
    dfg: DFG, walk: IntervalWalk, templates: Mapping[OpCode, str]
) -> Optional[Tuple[List[str], List[str], List[str], List[str]]]:
    """The straight-line code of a DFG value plane: its input variables, its
    constant assignments, its statements and its output variables, or
    ``None`` when ``templates`` lacks an operation.

    Node ``N``'s value is variable ``vN``.  Each distinct (opcode, operands)
    pair is computed once, with a commutative operation's operands sorted,
    and equal constants share one variable.  ``walk`` places the wraps
    (:class:`~repro.dfg.opcodes.IntervalWalk`).
    """
    names: Dict[int, str] = {}
    inputs: List[str] = []
    for node in dfg.inputs():
        names[node.node_id] = f"v{node.node_id}"
        inputs.append(names[node.node_id])
        walk.input(names[node.node_id])
    constants: List[str] = []
    body: List[str] = []
    computed: Dict[Tuple[Any, ...], str] = {}
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        if node.is_input or node.is_output:
            continue
        if node.is_const:
            value = int(cast(int, node.value))
            key: Tuple[Any, ...] = (_CONST, value)
            if key not in computed:
                computed[key] = f"v{node_id}"
                walk.const(computed[key], value)
                constants.append(f"{computed[key]} = {value}")
        else:
            operands = [names[o] for o in node.operands]
            if node.opcode.is_commutative:
                operands.sort()
            key = (node.opcode, *operands)
            if key not in computed:
                template = templates.get(node.opcode)
                if template is None:
                    return None
                computed[key] = f"v{node_id}"
                body += walk.op(node.opcode, computed[key], operands, template)
        names[node_id] = computed[key]
    outputs = [names[node.operands[0]] for node in dfg.outputs()]
    body += walk.outputs(outputs)
    return inputs, constants, body, outputs


class StreamEvaluator:
    """One DFG compiled to a function that evaluates a whole input stream.

    :func:`evaluate_dfg` re-derives the topological order and dispatches
    every node through :meth:`OpCode.evaluate` on every block.  This class
    generates, once per DFG, one Python function that loops over the
    stream with every node value in a local variable and every operation
    inlined as an expression (:data:`repro.dfg.opcodes.OP_EXPRESSIONS`),
    each distinct operation once (:func:`_dfg_plane`).  Every input goes
    through ``int()``.  A result is wrapped to 32 bits only where the
    :class:`~repro.dfg.opcodes.IntervalWalk` of the scalar plane puts a
    wrap: at every output and every operand read as a signed word, unless
    its value is a word whatever the inputs, and at a result whose interval
    reaches ``2**62``.  The wrap is a range test, with the wrap inlined in
    the branch an out-of-range value takes.  Every other value is congruent
    to its word modulo ``2**32``, so results equal :func:`evaluate_dfg`'s
    (``tests/test_kernels_reference.py`` checks this on random graphs over
    every opcode and the wrap edges).

    :func:`stream_evaluator` builds one per node set, shared by the
    graph's copies.  The evaluator holds no reference to its DFG.  Only
    positional (sequence) blocks are supported; mapping-style blocks go
    through :func:`evaluate_dfg`.
    """

    __slots__ = ("run",)

    def __init__(self, dfg: DFG):
        plane = _dfg_plane(dfg, IntervalWalk(_WRAP, scalar=True), OP_EXPRESSIONS)
        if plane is None:
            raise ValueError(f"kernel {dfg.name!r} has an operation with no arithmetic semantics")
        inputs, constants, body, outputs = plane
        width = len(inputs)
        lines = ["def _stream(blocks):", "    rows = []", "    append = rows.append"]
        lines += [f"    {line}" for line in constants]
        lines += [
            "    for block in blocks:",
            f"        if len(block) != {width}:",
            "            raise KernelError(",
            f'                f"kernel {{_name!r}} has {width} inputs, "',
            '                f"got {len(block)} values"',
            "            )",
        ]
        if inputs:
            lines.append(f"        {', '.join(inputs)}{',' if width == 1 else ''} = block")
            lines += [f"        {name} = int({name})" for name in inputs]
        lines += [f"        {line}" for line in body]
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


#: A numpy plane's wrap of variable ``{0}`` in place: the exact signed
#: 32-bit two's-complement wrap of an ``int64`` array (or a plain int).
VECTOR_WRAP = "{0} = (({0} & 4294967295) ^ 2147483648) - 2147483648"


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

    Exactness needs every input in signed 32-bit range: plans wrap each
    value before any operation whose result could leave ``int64`` (see
    :class:`~repro.dfg.opcodes.IntervalWalk`), which they can tell only
    for inputs in that range, and constants are 32-bit words by
    construction.  So only the inputs need a check: ``None`` comes back
    when numpy is missing, the stream is empty or not numeric, or an input
    lies outside that range.  A block of the wrong width raises the scalar
    evaluator's :class:`~repro.errors.KernelError`.  The array is
    read-only, so one conversion can serve both the batched engine's value
    plane and its check (:func:`vector_rows` takes it as checked).

    The widths are checked in one pass first, since ``np.fromiter`` over
    the chained blocks, which converts a list stream in about half the
    time ``np.array`` takes, cannot see a ragged block; a stream
    ``fromiter`` refuses goes through ``np.array``.
    """
    if np is None:
        return None
    if set(map(len, blocks)) - {width}:
        for block in blocks:
            if len(block) != width:
                raise KernelError(
                    f"kernel {name!r} has {width} inputs, got {len(block)} values"
                )
    count = len(blocks) * width
    if not count:
        return None
    try:
        array = np.fromiter(chain.from_iterable(blocks), dtype=np.int64, count=count)
        array = array.reshape(len(blocks), width)
    except (OverflowError, TypeError, ValueError):
        try:
            array = np.array(blocks, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
        if array.ndim != 2:
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
    """``_vplan`` for a DFG: one numpy expression per distinct operation,
    wrapped where the numpy plane's :class:`~repro.dfg.opcodes.IntervalWalk`
    puts a wrap."""
    plane = _dfg_plane(dfg, IntervalWalk(VECTOR_WRAP, scalar=False), OP_VECTOR_EXPRESSIONS)
    if plane is None or not plane[3]:
        return None
    inputs, constants, body, outputs = plane
    lines = ["def _vplan(inputs):"]
    lines += [f"    {name} = inputs[:, {index}]" for index, name in enumerate(inputs)]
    lines += [f"    {line}" for line in constants + body]
    lines.append("    return (" + ", ".join(outputs) + ",)")
    return "\n".join(lines)


class VectorStreamEvaluator:
    """One DFG compiled to numpy column expressions over a whole stream.

    The numpy counterpart of :class:`StreamEvaluator`: every node value is
    an ``int64`` array over the block axis, computed by its
    :data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS` entry (each distinct
    operation once) and wrapped to 32 bits where the numpy plane's
    :class:`~repro.dfg.opcodes.IntervalWalk` says, so a node costs one
    expression per stream, not one statement per block.  :meth:`run`
    returns ``None`` whenever numpy cannot give the
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


def _draw_below(rng: Any, span: int, low: int, count: int) -> List[int]:
    """``count`` values, each ``low`` plus what one ``rng._randbelow(span)``
    call would return, in turn, for ``1 <= span <= 255``.

    ``_randbelow`` draws ``k = span.bit_length()`` bits with
    ``getrandbits(k)`` until they fall below ``span``, and for ``k <= 8``
    those are the top ``k`` bits of one 32-bit Mersenne Twister word per
    try, all in its top byte.  ``getrandbits(32 * n)`` returns the next
    ``n`` words, first word lowest, so one call per chunk gives every try
    at once, and ``bytes.translate`` drops the top bytes that fall at or
    past ``span`` and keeps the top ``k`` bits of the rest without a
    Python-level test.
    """
    shift = 8 - span.bit_length()
    rejected = bytes(range(span << shift, 256))
    table = bytes(byte >> shift for byte in range(256)) if shift else None
    values: List[int] = []
    while len(values) < count:
        need = count - len(values)
        # A try succeeds with probability ``span / 2**k``, at least one half.
        tries = (need << (8 - shift)) // span + 2 * isqrt(need) + 8
        raw = rng.getrandbits(32 * tries).to_bytes(4 * tries, "little")
        values += [low + byte for byte in raw[3::4].translate(table, rejected)]
    del values[count:]
    return values


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

    Each value is what ``rng.randint(low, high)`` returns, in turn:
    ``low + rng._randbelow(high - low + 1)``.  A span of at most 255 values
    (the default range has 129) comes from one ``getrandbits`` call per
    chunk (:func:`_draw_below`).  A wider span, bounds that are not plain
    ints, an empty range (``randint`` raises ``ValueError``) or a generator
    without ``getrandbits`` takes ``randint`` for every value.
    """
    if num_blocks < 0:
        raise KernelError("num_blocks must be non-negative")
    rng = random.Random(seed)
    width = dfg.num_inputs
    span = high - low + 1
    if type(span) is int and 1 <= span <= 255 and hasattr(rng, "getrandbits"):
        if not width:
            return [[] for _ in range(num_blocks)]
        values = iter(_draw_below(rng, span, low, num_blocks * width))
        return list(map(list, zip(*[values] * width)))
    return [[rng.randint(low, high) for _ in range(width)] for _ in range(num_blocks)]
