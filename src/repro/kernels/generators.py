"""Synthetic kernel/DFG generators.

The generators:

* :func:`dfg_from_level_profile` — build a DFG with an exact number of
  operations at each depth level.  This is how the ``poly5``-``poly8``
  benchmarks are reconstructed (only their I/O, op-count and depth are
  published), and it is also useful for scalability sweeps where the workload
  shape must be controlled precisely.
* :func:`random_dfg` — seeded random DAG generator used by the property-based
  tests to exercise the schedulers and the simulator on graphs that nobody
  hand-tuned.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..dfg.builder import DFGBuilder
from ..dfg.graph import DFG
from ..dfg.opcodes import OpCode
from ..errors import KernelError

#: Binary opcodes the generators draw from.  They are all two-operand DSP ops
#: so any generated kernel maps onto the overlay without legalization.
_BINARY_OPCODES = (OpCode.MUL, OpCode.ADD, OpCode.SUB, OpCode.ADD)


def dfg_from_level_profile(
    profile: Sequence[int],
    num_inputs: int,
    name: str = "synthetic",
    opcodes: Sequence[OpCode] = _BINARY_OPCODES,
) -> DFG:
    """Build a DFG with ``profile[k]`` operations at depth level ``k + 1``.

    The wiring is deterministic:

    * every operation takes its first operand from the previous level
      (cycling over that level's nodes so that each of them is consumed at
      least once — this pins the depth of every node and leaves no dead
      operations), and
    * its second operand cycles over the primary inputs and earlier levels,
      which creates the multi-level value reuse (pass-through traffic) that
      makes the per-FU load counts of real kernels interesting.

    The final level must contain exactly one operation; it becomes the single
    primary output.  The resulting characteristics are exact:
    ``num_operations == sum(profile)`` and ``depth == len(profile)``.
    """
    if not profile:
        raise KernelError("level profile must contain at least one level")
    if profile[-1] != 1:
        raise KernelError("the last level of the profile must contain exactly 1 op")
    if any(count < 1 for count in profile):
        raise KernelError("every level of the profile must contain at least 1 op")
    if num_inputs < 1:
        raise KernelError("at least one primary input is required")

    builder = DFGBuilder(name)
    inputs = [builder.input(f"I{i}") for i in range(num_inputs)]
    previous_level: List[int] = list(inputs)
    earlier_pool: List[int] = list(inputs)  # values from levels strictly before L-1
    opcode_cycle = list(opcodes)

    for level_index, count in enumerate(profile):
        width = len(previous_level)
        if width > 2 * count:
            raise KernelError(
                f"level {level_index + 1} has {count} ops but must consume "
                f"{width} values from the previous level (needs width <= 2*ops)"
            )
        # Operand slots: every op's first operand comes from the previous
        # level (pinning its depth); previous-level values that do not fit in
        # the first-operand slots are consumed as second operands of the first
        # few ops; remaining second operands reuse inputs/earlier levels,
        # which creates realistic multi-level (pass-through) traffic.
        first_operands = [previous_level[i % width] for i in range(count)]
        leftover = previous_level[count:] if count < width else []
        second_operands: List[int] = []
        for position in range(count):
            if position < len(leftover):
                second_operands.append(leftover[position])
            else:
                pool = earlier_pool if earlier_pool else previous_level
                second_operands.append(pool[(level_index * 3 + position * 2) % len(pool)])

        current_level: List[int] = []
        for position in range(count):
            first = first_operands[position]
            second = second_operands[position]
            opcode = opcode_cycle[(level_index + position) % len(opcode_cycle)]
            if first == second and opcode is OpCode.SUB:
                # x - x would constant-fold to zero downstream; use ADD instead.
                opcode = OpCode.ADD
            current_level.append(builder.op(opcode, first, second))

        earlier_pool = earlier_pool + previous_level if level_index > 0 else earlier_pool
        previous_level = current_level

    builder.output(previous_level[0], "O0")
    return builder.build()


def dfg_from_traffic_profile(
    computes: Sequence[int],
    skips: Sequence[int],
    num_inputs: int,
    name: str = "synthetic",
    opcodes: Sequence[OpCode] = _BINARY_OPCODES,
) -> DFG:
    """Build a DFG with controlled per-stage *traffic*, not just op counts.

    ``computes[k]`` is the number of operations at depth level ``k + 1``
    (exactly as in :func:`dfg_from_level_profile`).  ``skips[s]`` is the
    number of values produced at level ``s`` (``s = 0`` meaning the primary
    inputs) that are consumed two levels later instead of at the next level.
    On a linear overlay such a value must be loaded and re-emitted by the
    stage it skips, so ``skips[s]`` is exactly the number of pass-through
    instructions stage ``s`` executes — which is what determines the per-FU
    ``#load`` / ``#op`` counts in the paper's II equations.

    This generator is how the ``poly5``-``poly8`` kernels are reconstructed:
    only their I/O, op count and depth are published, but choosing the
    ``computes``/``skips`` profiles appropriately also reproduces the
    initiation intervals the paper reports for them (see
    ``repro.kernels.characteristics``).

    Rules (all checked):

    * skip-designated values are consumed *only* at level ``s + 2`` (except
      primary inputs, which are always also consumed at level 1);
    * every operation draws its first operand from the previous level, which
      pins its depth exactly;
    * every produced value is consumed, so the graph has no dead code.
    """
    if len(skips) != len(computes):
        raise KernelError("skips must have one entry per level of computes")
    if not computes or computes[-1] != 1:
        raise KernelError("the last level must contain exactly 1 op")
    if any(c < 1 for c in computes):
        raise KernelError("every level must contain at least 1 op")
    if any(s < 0 for s in skips):
        raise KernelError("skip counts must be non-negative")
    depth = len(computes)
    if num_inputs < 1:
        raise KernelError("at least one primary input is required")
    if skips[0] > num_inputs:
        raise KernelError("cannot designate more skipping inputs than inputs")
    for level in range(1, depth):
        if skips[level] > computes[level - 1]:
            raise KernelError(
                f"level {level} produces {computes[level - 1]} values but "
                f"{skips[level]} are designated to skip"
            )
        if computes[level - 1] - skips[level] < 1:
            raise KernelError(
                f"level {level + 1} would have no non-skip value to pin its depth"
            )
    if skips[depth - 1] != 0:
        raise KernelError(
            "values produced at the deepest level cannot skip (nothing to skip to)"
        )

    builder = DFGBuilder(name)
    inputs = [builder.input(f"I{i}") for i in range(num_inputs)]
    opcode_cycle = list(opcodes)

    # skip_values[s] holds the node ids produced at level s that skip level s+1.
    skip_values: List[List[int]] = [[] for _ in range(depth + 1)]
    skip_values[0] = inputs[: skips[0]]
    previous_normal: List[int] = list(inputs)  # non-skip values of level L-1
    previous_all: List[int] = list(inputs)

    for level in range(1, depth + 1):
        ops_count = computes[level - 1]
        arriving = skip_values[level - 2] if level >= 2 else []
        must_consume = list(previous_normal) + list(arriving)
        if level == 1:
            must_consume = list(inputs)  # inputs are always consumed at level 1
        slots = 2 * ops_count
        if len(must_consume) > slots:
            raise KernelError(
                f"level {level} has {ops_count} ops ({slots} operand slots) but must "
                f"consume {len(must_consume)} values; widen the level or reduce skips"
            )
        first_operands = [previous_normal[i % len(previous_normal)] for i in range(ops_count)]
        leftover_normal = previous_normal[ops_count:] if ops_count < len(previous_normal) else []
        pending_second = list(leftover_normal) + list(arriving)
        second_operands: List[int] = []
        for position in range(ops_count):
            if position < len(pending_second):
                second_operands.append(pending_second[position])
            else:
                second_operands.append(
                    previous_normal[(position * 2 + level) % len(previous_normal)]
                )

        current: List[int] = []
        for position in range(ops_count):
            first = first_operands[position]
            second = second_operands[position]
            opcode = opcode_cycle[(level + position) % len(opcode_cycle)]
            if first == second and opcode is OpCode.SUB:
                opcode = OpCode.ADD
            current.append(builder.op(opcode, first, second))

        skip_count = skips[level] if level < depth else 0
        skip_values[level] = current[-skip_count:] if skip_count else []
        previous_normal = current[: len(current) - skip_count] if skip_count else list(current)
        previous_all = current

    builder.output(previous_all[0], "O0")
    return builder.build()


def random_dfg(
    num_inputs: int,
    num_operations: int,
    seed: int = 0,
    name: Optional[str] = None,
    max_fanin_distance: int = 4,
) -> DFG:
    """Generate a seeded random straight-line kernel DFG.

    Every operation picks operands among the primary inputs and previously
    generated operations (biased towards recent values so the graph gains
    depth), and every value that ends up with no consumer is folded into a
    final balanced ADD-reduction so the graph has a single output and no dead
    code.  The same ``seed`` always produces the same graph.
    """
    if num_inputs < 1:
        raise KernelError("at least one primary input is required")
    if num_operations < 1:
        raise KernelError("at least one operation is required")
    rng = random.Random(seed)
    builder = DFGBuilder(name or f"random_s{seed}")
    inputs = [builder.input(f"I{i}") for i in range(num_inputs)]
    values: List[int] = list(inputs)
    consumed: set = set()

    for _ in range(num_operations - 1):
        opcode = rng.choice(_BINARY_OPCODES)
        window = values[-max_fanin_distance * num_inputs :]
        first = rng.choice(window)
        second = rng.choice(values)
        node = builder.op(opcode, first, second)
        consumed.add(first)
        consumed.add(second)
        values.append(node)

    # Final reduction over everything not yet consumed (keeps the graph live).
    leftovers = [v for v in values if v not in consumed]
    if not leftovers:
        leftovers = [values[-1]]
    while len(leftovers) > 1:
        merged = []
        for i in range(0, len(leftovers) - 1, 2):
            merged.append(builder.add(leftovers[i], leftovers[i + 1]))
        if len(leftovers) % 2:
            merged.append(leftovers[-1])
        leftovers = merged
    builder.output(leftovers[0], "O0")
    return builder.build(validate=False)
