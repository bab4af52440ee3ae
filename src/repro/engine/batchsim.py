"""Batched engine: the fast engine whose value plane runs the compiled image.

:class:`BatchSimulator` (``engine="batched"``) is a
:class:`~repro.engine.fastsim.FastSimulator` with one part swapped: the
value plane.  Timing is the fast engine's own code, the max-plus block
recurrence with its fast-forward jumps and the lane-timing memo of
:meth:`~repro.engine.fastsim.FastSimulator._run_timing`, so a ``fast``
and a ``batched`` run of one stream shape share one memo entry, and on
every artifact codegen encodes correctly the batched engine's results are
**bit-identical** to the cycle simulator's (the equivalence suites assert
it library-wide):

1. **Lane batching.**  Timing is *value independent*: a lane's control
   evolution depends only on how many blocks it receives (see the
   :mod:`~repro.engine.fastsim` module docstring).  Round-robin dealing
   gives every lane of a multilane (V2-style) overlay one of at most two
   distinct block counts, and the timing memo times once per *distinct
   lane length*.  The batched engine also runs its value plane once over
   the whole stream and deals the rows out to the lanes.

2. **The compiled image as the value plane.**  :class:`VectorBlockEvaluator`
   executes the configuration image that codegen emits for the schedule:
   FU0's arrivals are input columns in load-map order, each EXEC word is one
   numpy expression over a block axis
   (:data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS`), PASS words and
   write-backs rename, and the last FU's forwarded words are the outputs.
   Values are wrapped to 32 bits only where the
   :class:`~repro.dfg.opcodes.IntervalWalk` puts a wrap: at an output,
   before a signed-word read (SHR, MIN, MAX, ABS) and before an operation
   whose result could leave ``int64``; every other value is congruent to
   its word modulo ``2**32``, which the other operations need, so the
   outputs are the words the ALU computes.  So the outputs come from the
   instruction words, not from the DFG, and the ``verify=True`` check, which
   evaluates the DFG, catches a codegen fault the other engines cannot see.
   When codegen refuses the schedule, or an input lies outside the signed
   32-bit range (where ``int64`` intermediates could overflow), the engine
   falls back to the scalar plane
   (:func:`~repro.engine.fastsim._functional_outputs`).

numpy is an **optional** dependency (the ``[batch]`` extra) that only
speeds up the value plane and the check: without numpy the engine runs on
the scalar value plane.  Importing this module loads numpy, and from then
on every engine's check in the process runs on numpy
(``reference_outputs(..., vectorized=True)``); a batched check reads the
``int64`` array its value plane made of the stream.  See ``docs/engine.md``
("Batched execution") for the data layout and the correctness argument.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from ..dfg.opcodes import OP_VECTOR_EXPRESSIONS, IntervalWalk
from ..errors import CodegenError, SimulationError
from ..kernels.reference import (
    VECTOR_WRAP,
    IdentityMemo,
    compile_vector_plan,
    import_numpy,
    int64_inputs,
    vector_rows,
)
from ..overlay.isa import InstructionKind, decode_instruction
from ..program.binary import build_configuration_image
from ..program.codegen import generate_program
from ..schedule.types import OverlaySchedule
from ..sim.overlay import (
    SimulationResult,
    check_input_blocks,
    merge_lane_results,
    split_lane_blocks,
)
from .fastsim import FastSimulator, _functional_outputs

#: The numpy module, or ``None`` when the optional dependency is absent.
np: Any = import_numpy()

_NOP = InstructionKind.NOP
_PASS = InstructionKind.PASS
_LOAD = InstructionKind.LOAD


# ---------------------------------------------------------------------------
# vectorized value plane: the configuration image on numpy columns
# ---------------------------------------------------------------------------
def image_plan_source(schedule: OverlaySchedule) -> Optional[str]:
    """Source of ``_vplan(inputs)``, which executes the schedule's
    configuration image over a whole stream; ``None`` when codegen refuses
    the schedule.

    The image is what :func:`~repro.program.codegen.generate_program` and
    :func:`~repro.program.binary.build_configuration_image` emit.  Each FU's
    registers start from its constant section.  FU0's arrivals are input
    columns in load-map order, and every later FU's arrivals are the
    previous FU's forwarded words in issue order.  Arrivals fill registers
    0..n-1 on the load/execute-overlapping variants, and on the baseline
    each LOAD word writes the next one to its ``rd``.  An EXEC word applies
    its opcode to ``ra``/``rb`` (one numpy expression, with the wraps the
    :class:`~repro.dfg.opcodes.IntervalWalk` places before and after it:
    every instruction word is executed, so a codegen fault still changes
    the values), a PASS word forwards ``ra``; WB writes the result to ``rd`` and every
    word without NDF forwards it.  A read of a register nothing has written
    gives 0, the register file's contents at configuration.  The last FU's
    forwarded words are the output stream: each output takes the word at
    its value's place in the last stage's emission order (the host's view
    of the output DMA).  An output whose value that order lacks raises
    :class:`~repro.errors.SimulationError`, as on the cycle engine.
    """
    try:
        program = generate_program(schedule)
        image = build_configuration_image(schedule, program)
    except CodegenError:
        return None
    dfg = schedule.dfg
    column = {node.node_id: index for index, node in enumerate(dfg.inputs())}
    walk = IntervalWalk(VECTOR_WRAP, scalar=False)
    walk.const("0", 0)
    lines = ["def _vplan(inputs):"]
    arrivals: List[str] = []
    for value_id, _register in program.fu_programs[0].load_map:
        arrivals.append(f"x{len(arrivals)}")
        walk.input(arrivals[-1])
        lines.append(f"    {arrivals[-1]} = inputs[:, {column[value_id]}]")
    issued_loads = not schedule.variant.overlap_load_execute
    temps = 0
    for k, words in enumerate(image.fu_instruction_words):
        registers: Dict[int, str] = {}
        for register, value in image.fu_constants[k]:
            registers[register] = f"c{k}_{register}"
            walk.const(registers[register], value)
            lines.append(f"    c{k}_{register} = {value}")
        if not issued_loads:
            registers.update(enumerate(arrivals))
        pending = iter(arrivals)
        forwarded: List[str] = []
        for word in words:
            instruction = decode_instruction(word)
            kind = instruction.kind
            if kind is _NOP:
                continue
            if kind is _LOAD:
                registers[instruction.rd] = next(pending, "0")
                continue
            if kind is _PASS:
                result = registers.get(instruction.ra, "0")
            else:
                opcode = instruction.opcode
                template = OP_VECTOR_EXPRESSIONS.get(opcode)
                if template is None:
                    return None
                reads = (instruction.ra, instruction.rb)[: opcode.arity]
                result = f"t{temps}"
                temps += 1
                operands = [registers.get(register, "0") for register in reads]
                lines += [f"    {line}" for line in walk.op(opcode, result, operands, template)]
            if instruction.wb:
                registers[instruction.rd] = result
            if not instruction.ndf:
                forwarded.append(result)
        arrivals = forwarded
    place = {
        value_id: index
        for index, value_id in enumerate(schedule.stage(schedule.depth - 1).emission_order)
    }
    outputs: List[str] = []
    for output in dfg.outputs():
        index = place.get(output.operands[0])
        if index is None:
            raise SimulationError(
                f"output {output.name} (value N{output.operands[0]}) never reaches "
                "the output FIFO"
            )
        outputs.append(arrivals[index] if index < len(arrivals) else "0")
    if not outputs:
        return None
    lines += [f"    {line}" for line in walk.outputs(outputs)]
    lines.append("    return (" + ", ".join(outputs) + ",)")
    return "\n".join(lines)


class VectorBlockEvaluator:
    """The batched engine's value plane: the compiled image on numpy columns.

    Built once per schedule object (by :func:`plan_for`), it runs the
    function of :func:`image_plan_source` on the whole input stream at once:
    every register value is an ``int64`` array over the block axis, and each
    EXEC word is one expression
    (:data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS`), wrapped to 32 bits
    where :func:`image_plan_source` says.  :meth:`evaluate` returns ``None``
    when numpy is absent, codegen refused the schedule or an input lies
    outside the signed 32-bit range (see
    :func:`~repro.kernels.reference.vector_rows`); the engine then falls
    back to the scalar plane.  It holds no reference to the schedule.
    """

    __slots__ = ("_plan", "_width", "_name")

    def __init__(self, schedule: OverlaySchedule):
        source = image_plan_source(schedule) if np is not None else None
        self._plan = compile_vector_plan(
            np, source, f"<vimage:{schedule.kernel_name}/{schedule.overlay.name}>"
        )
        self._width = schedule.dfg.num_inputs
        self._name = schedule.kernel_name

    def evaluate(self, blocks: Any) -> Optional[List[List[int]]]:
        """Output rows for a stream (or the array
        :func:`~repro.kernels.reference.int64_inputs` made of it), or
        ``None`` to request the scalar path."""
        return vector_rows(np, self._plan, blocks, self._width, self._name)


#: One value plane per live schedule object, keyed by identity (see
#: :class:`~repro.kernels.reference.IdentityMemo`).
_PLANS: IdentityMemo[OverlaySchedule, VectorBlockEvaluator] = IdentityMemo(VectorBlockEvaluator)


def plan_for(schedule: OverlaySchedule) -> VectorBlockEvaluator:
    """Memoised :class:`VectorBlockEvaluator` for a live schedule object."""
    return _PLANS(schedule)


# ---------------------------------------------------------------------------
# simulator front
# ---------------------------------------------------------------------------
class BatchSimulator(FastSimulator):
    """The fast engine whose value plane executes the compiled image.

    It times every lane with the fast engine's own block recurrence and
    timing memo, so a ``fast`` and a ``batched`` run of one shape share one lane
    timing; on a correctly encoded artifact every result equals the cycle
    engine's (asserted library-wide by ``tests/test_engine_batchsim.py``).
    Its :class:`VectorBlockEvaluator` comes from :func:`plan_for`, one per
    schedule object.  Without numpy the value plane falls back to the
    scalar one, so the engine runs anyway.
    """

    def __init__(
        self,
        schedule: OverlaySchedule,
        max_cycles: Optional[int] = None,
        fast_forward: bool = True,
    ):
        super().__init__(schedule, max_cycles=max_cycles, fast_forward=fast_forward)
        self.plan = plan_for(schedule)
        #: The last run's stream as :func:`~repro.kernels.reference.int64_inputs`
        #: made it, or ``None``; ``simulate_schedule`` hands it to the check,
        #: so a verified run converts its stream once.
        self.inputs: Any = None

    # ------------------------------------------------------------------
    def run(self, input_blocks: Sequence[Sequence[int]]) -> SimulationResult:
        self.fast_forward_events = []
        blocks = check_input_blocks(self.schedule, input_blocks)
        lanes = self.schedule.variant.lanes
        if lanes == 1:
            return self._run_lane(blocks)
        # The value plane runs once over the whole stream; each lane takes
        # its rows.  Round-robin dealing leaves at most two distinct lane
        # lengths, and the timing memo times once per length.
        outputs = self._outputs(blocks)
        lane_results: List[Optional[SimulationResult]] = [
            replace(self._run_timing(len(stream)), outputs=outputs[lane::lanes]) if stream else None
            for lane, stream in enumerate(split_lane_blocks(blocks, lanes))
        ]
        return merge_lane_results(self.schedule, blocks, lane_results)

    def _outputs(self, blocks: List[List[int]]) -> List[List[int]]:
        schedule = self.schedule
        self.inputs = int64_inputs(np, blocks, schedule.dfg.num_inputs, schedule.kernel_name)
        rows = self.plan.evaluate(blocks if self.inputs is None else self.inputs)
        if rows is None:
            rows = _functional_outputs(schedule.dfg, blocks)
        return rows
