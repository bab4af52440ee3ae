"""Seeded inputs of the end-to-end benchmark.

Everything the workloads feed the toolchain comes from here, and every
function takes its randomness from an explicit ``random.Random`` or seed, so
one ``--seed`` always produces byte-identical inputs:

* :func:`kernel_stream` — random mini-C kernels.  Each one is a
  :func:`repro.kernels.generators.random_dfg` graph written out as C text,
  one ``int tN = a op b;`` statement per node.  The generator's own DFG is
  kept beside the text as the oracle: compiling the text must compute
  exactly what :func:`repro.kernels.reference.evaluate_dfg` computes on it.
* :func:`input_stream` — input blocks spanning the full signed 32-bit range,
  with about one value in ten drawn from the exact wrap edges.
* :func:`length_ladder` — log-spaced stream lengths.  They do not depend on
  the seed: every seed streams the same lengths, with different values.

Sizes are stratified rather than drawn independently: every block of five
kernels has one from each op-count band of 8 to 32, so two seeds differ in
graph structure but hardly in how much work they ask for.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.dfg.opcodes import OpCode
from repro.kernels.generators import random_dfg

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1

#: Values where 32-bit two's-complement arithmetic wraps or changes sign.
WRAP_EDGES = (INT32_MIN, INT32_MIN + 1, -2, -1, 0, 1, INT32_MAX - 1, INT32_MAX)

#: Share of input values drawn from :data:`WRAP_EDGES`.
EDGE_SHARE = 0.1

#: Op-count bands; every block of five kernels has one kernel from each band.
OP_BANDS = ((8, 12), (13, 17), (18, 22), (23, 27), (28, 32))
#: Input counts; over five blocks every band meets each input count once.
INPUT_COUNTS = (2, 3, 4, 5, 6)

_C_OPERATORS = {OpCode.ADD: "+", OpCode.SUB: "-", OpCode.MUL: "*"}


@dataclass(frozen=True)
class GeneratedKernel:
    """One generated kernel: its mini-C text and the DFG it was written from."""

    name: str
    source: str
    dfg: DFG


def port_name(node) -> str:
    """The input/output port of a DFG node (``I0_N3`` -> ``I0``)."""
    return node.name.split("_N")[0]


def kernel_source(dfg: DFG, name: str) -> str:
    """Write a two-operand DFG as one mini-C function, one statement per node."""
    names: Dict[int, str] = {}
    params: List[str] = []
    body: List[str] = []
    result = None
    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        if node.is_input:
            names[node_id] = port_name(node)
            params.append(f"int {names[node_id]}")
        elif node.is_output:
            result = names[node.operands[0]]
        else:
            operator = _C_OPERATORS.get(node.opcode)
            if operator is None or len(node.operands) != 2:
                raise ValueError(f"cannot write {node.opcode} as a mini-C binary op")
            lhs, rhs = (names[operand] for operand in node.operands)
            names[node_id] = f"t{node_id}"
            body.append(f"    int t{node_id} = {lhs} {operator} {rhs};")
    if result is None:
        raise ValueError(f"DFG {dfg.name!r} has no output")
    lines = [f"int {name}({', '.join(params)}) {{", *body, f"    return {result};", "}"]
    return "\n".join(lines) + "\n"


def _kernel(rng: random.Random, index: int, band: Tuple[int, int], inputs: int) -> GeneratedKernel:
    # random_dfg folds unconsumed values into a final ADD reduction, so the
    # graph can exceed the requested size: ask for less until it fits, and
    # draw again if it then falls below the band.
    name = f"g{index}"
    while True:
        target, seed = rng.randint(*band), rng.randrange(2 ** 31)
        for requested in range(target, 0, -1):
            dfg = random_dfg(inputs, requested, seed=seed, name=name)
            if dfg.num_operations <= target:
                break
        if dfg.num_operations >= band[0]:
            return GeneratedKernel(name=name, source=kernel_source(dfg, name), dfg=dfg)


def kernel_stream(seed: object) -> Iterator[GeneratedKernel]:
    """An endless, seeded stream of kernels in blocks of ``len(OP_BANDS)``."""
    rng = random.Random(f"kernels/{seed}")
    index = 0
    for block in itertools.count():
        bands = list(enumerate(OP_BANDS))
        rng.shuffle(bands)
        for band_index, band in bands:
            yield _kernel(rng, index, band, INPUT_COUNTS[(block + band_index) % len(INPUT_COUNTS)])
            index += 1


def input_value(rng: random.Random) -> int:
    """One signed 32-bit value; :data:`EDGE_SHARE` of them are wrap edges."""
    if rng.random() < EDGE_SHARE:
        return rng.choice(WRAP_EDGES)
    return rng.getrandbits(32) + INT32_MIN


def input_stream(rng: random.Random, width: int, length: int) -> List[List[int]]:
    """``length`` input blocks of ``width`` values each."""
    return [[input_value(rng) for _ in range(width)] for _ in range(length)]


def blocks_for(dfg: DFG, named_blocks: Sequence[Dict[str, int]]) -> List[List[int]]:
    """Positional blocks for ``dfg`` from blocks keyed by input port name."""
    ports = [port_name(node) for node in dfg.inputs()]
    return [[block[port] for port in ports] for block in named_blocks]


def named_stream(rng: random.Random, dfg: DFG, length: int) -> List[Dict[str, int]]:
    """Input blocks keyed by the DFG's input port names."""
    ports = [port_name(node) for node in dfg.inputs()]
    return [{port: input_value(rng) for port in ports} for _ in range(length)]


def length_ladder(count: int, low: int, high: int) -> List[int]:
    """``count`` log-spaced lengths in ``[low, high]``, one per stratum midpoint."""
    return [int(round(low * (high / low) ** ((stratum + 0.5) / count))) for stratum in range(count)]
