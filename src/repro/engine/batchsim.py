"""Batched engine: the fast engine with a generated tick loop.

:class:`~repro.engine.fastsim.FastSimulator` already runs an order of
magnitude faster than the cycle simulator, but its inner loop is still
interpreted Python: every tick walks ``_FastFU.tick`` through attribute
loads, per-slot tuple unpacking and method dispatch, and the functional
output reconstruction runs one Python statement per DFG node and block.
:class:`BatchSimulator` (``engine="batched"``) is a ``FastSimulator`` that
swaps out exactly those two parts — the tick loop and the value plane —
and shares the rest (state containers, detector, timing setup, result
assembly), so on every artifact codegen encodes correctly its results are
**bit-identical** to the fast engine's (and therefore to the cycle
simulator's — the equivalence suite asserts the full chain):

1. **Whole-loop codegen.**  :func:`generate_loop_source` exec-compiles the
   *entire* steady-state tick loop of one schedule — FU slot advance, FIFO
   push/consume, RF write/consume, stall and backpressure checks, completion
   bookkeeping — into a single specialized Python function.  Per-FU control
   state lives in local variables, per-slot dispatch is unrolled into
   straight-line ``if``/``elif`` chains with operands, latencies and FIFO
   capacities inlined as literals, and structurally impossible branches
   (stages without loads, slots or write-backs) are simply not emitted.
   This is the same per-artifact codegen strategy as the exec-compiled
   :class:`~repro.kernels.reference.StreamEvaluator`, extended from
   output reconstruction to the whole engine, exactly as the roadmap asks.
   The generated loop is a statement-for-statement transcription of
   ``_FastFU.tick`` / ``FastSimulator._loop``; it reuses the fast engine's
   ``_FastFU``/``_FastChannel`` objects as state containers and
   synchronizes locals with them only around steady-state detector events,
   so the (unchanged) detector observes exactly the state the fast engine
   would have shown it and its fast-forward skips stay exact.

2. **Lane batching.**  Fast-engine timing is *value independent* — a lane's
   control evolution depends only on how many blocks it receives (see the
   :mod:`~repro.engine.fastsim` module docstring).  Round-robin dealing
   gives every lane of a multilane (V2-style) overlay one of at most two
   distinct block counts, so one timing run per *distinct lane length*
   serves every lane, instead of N sequential single-lane runs.  Both
   engines get this from the lane-timing memo of
   :meth:`~repro.engine.fastsim.FastSimulator._run_timing`; the batched
   engine also runs its value plane once over the whole stream and deals
   the rows out to the lanes.

3. **The compiled image as the value plane.**  :class:`VectorBlockEvaluator`
   executes the configuration image that codegen emits for the schedule:
   FU0's arrivals are input columns in load-map order, each EXEC word is one
   numpy expression over a block axis
   (:data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS`) followed by an exact
   32-bit two's-complement wrap, PASS words and write-backs rename, and the
   last FU's forwarded words are the outputs.  So the outputs come from the
   instruction words, not from the DFG, and the ``verify=True`` check, which
   evaluates the DFG (on numpy too, ``reference_outputs(...,
   vectorized=True)``), catches a codegen fault the other engines cannot
   see.  When codegen refuses the schedule, or an input lies outside the
   signed 32-bit range (where ``int64`` intermediates could overflow), the
   engine falls back to the scalar plane
   (:func:`~repro.engine.fastsim._functional_outputs`).

numpy is an **optional** dependency (the ``[batch]`` extra) that only
speeds up the value plane: the tick loop is pure Python, so without numpy
the engine runs on the scalar value plane.  See ``docs/engine.md``
("Batched execution") for the data layout and the correctness argument.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..dfg.opcodes import OP_VECTOR_EXPRESSIONS
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
from .fastsim import FastSimulator, _FastRF, _functional_outputs, stage_plan

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
    its opcode to ``ra``/``rb`` (one numpy expression, wrapped to 32 bits),
    a PASS word forwards ``ra``; WB writes the result to ``rd`` and every
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
    lines = ["def _vplan(inputs):"]
    arrivals: List[str] = []
    for value_id, _register in program.fu_programs[0].load_map:
        arrivals.append(f"x{len(arrivals)}")
        lines.append(f"    {arrivals[-1]} = inputs[:, {column[value_id]}]")
    issued_loads = not schedule.variant.overlap_load_execute
    temps = 0
    for k, words in enumerate(image.fu_instruction_words):
        registers: Dict[int, str] = {}
        for register, value in image.fu_constants[k]:
            registers[register] = f"c{k}_{register}"
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
                template = OP_VECTOR_EXPRESSIONS.get(instruction.opcode)
                if template is None:
                    return None
                operands = (registers.get(instruction.ra, "0"), registers.get(instruction.rb, "0"))
                result = f"t{temps}"
                temps += 1
                lines.append(f"    {result} = " + template.format(*operands))
                lines.append(f"    {result} = " + VECTOR_WRAP.format(result))
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
    lines.append("    return (" + ", ".join(outputs) + ",)")
    return "\n".join(lines)


class VectorBlockEvaluator:
    """The batched engine's value plane: the compiled image on numpy columns.

    Built once per schedule (by :class:`BatchPlan`), it runs the function of
    :func:`image_plan_source` on the whole input stream at once: every
    register value is an ``int64`` array over the block axis, and each EXEC
    word is one expression (:data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS`)
    followed by an exact 32-bit wrap.  :meth:`evaluate` returns ``None``
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


# ---------------------------------------------------------------------------
# whole-loop codegen
# ---------------------------------------------------------------------------
def _nest_rf(reads_left: Dict[Tuple[int, int], int]) -> Dict[int, Dict[int, int]]:
    """A register file's flat ``{(block, vid): reads}`` as the loop's nested
    ``{block: {vid: reads}}`` layout (sync-in, shared by every plan)."""
    nested: Dict[int, Dict[int, int]] = {}
    for (block, vid), reads in reads_left.items():
        inner = nested.get(block)
        if inner is None:
            inner = nested[block] = {}
        inner[vid] = reads
    return nested


def _flatten_rf(rf: _FastRF, nested: Dict[int, Dict[int, int]]) -> None:
    """Store the loop's nested register file back into ``rf``'s flat layout
    (sync-out, shared by every plan).

    Iteration order is irrelevant: every consumer of the flat dicts sorts
    or keys them.
    """
    rf.reads_left = {
        (block, vid): reads for block, inner in nested.items() for vid, reads in inner.items()
    }
    rf.block_counts = {block: len(inner) for block, inner in nested.items()}


def generate_loop_source(schedule: OverlaySchedule) -> str:
    """Source of the specialized steady-state loop for one schedule.

    The generated ``_batch_loop(fus, channels, detector, num_blocks,
    max_cycles, received, completion)`` function transcribes
    ``FastSimulator._loop`` plus ``_FastFU.tick`` statement for statement,
    with all per-FU/channel control state held in local variables and every
    schedule-constant (slot operands, latencies, FIFO capacity, load
    orders) inlined as a literal.  On top of the literal
    transcription the loop uses three state-equivalent specializations:

    * the register file is a nested ``{block: {value_id: reads_left}}``
      dict plus an incremental live-entry counter, so operand residency
      checks hash small ints instead of allocating ``(block, vid)`` tuples
      (per-block count == ``len(inner)``, global count == the counter —
      provably equal to the flat layout's bookkeeping at every step);
    * the exec hazard value ``load_complete.get(exec_block, -1)`` is cached
      in a local and refreshed only when ``exec_block`` advances or the
      matching load completes;
    * per-slot dispatch is a generated binary decision tree on the slot
      index (O(log slots) int compares) with each slot body fully inlined.

    The ``_FastFU`` / ``_FastChannel`` objects are used purely as state
    containers.  The tick loop sits inside an outer ``while True:`` whose
    body is one sync each way: reload the locals from the objects (the RF
    re-nested by :func:`_nest_rf`), tick until the stream is done or a
    cycle completes a block while the detector is on, then flush the
    locals back (the RF re-flattened to the fast engine's exact layout by
    :func:`_flatten_rf`).  The body then returns if the stream is done, so
    the caller reads final stats and high-water marks off the objects
    exactly as the fast engine does; otherwise it calls
    ``detector.observe`` and goes round again, reloading everything (the
    detector mutates and *rebinds* dicts/deques during a skip).  The two
    RF helpers are module functions shared by every plan, so a loop has
    no nested code objects; the scalar stores stay inline.
    """
    depth = schedule.depth
    last = depth - 1
    variant = schedule.variant
    capacity = schedule.overlay.fifo_depth
    expected = len(schedule.stage(last).emission_order)
    overlap = variant.overlap_load_execute
    lookahead = 1 if overlap else 0
    alu_depth = variant.alu_pipeline_depth
    wb_latency = variant.iwp or variant.alu_pipeline_depth
    exec_gap = variant.exec_block_gap
    load_gap = variant.load_block_gap

    stage_meta = [stage_plan(schedule, k) for k in range(depth)]

    lines: List[str] = []

    def emit(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    def emit_rf_write(indent: int, k: int, block: str, vid: str, reads: Any) -> None:
        """Inline ``_FastRF.write(block, vid, reads)`` on the nested layout.

        Drops zero-read writes up front like the fast engine.  The nested
        invariants mirror the flat layout exactly: ``live_k`` equals
        ``len(flat reads_left)`` (insert bumps it only on a new key) and
        ``len(inner)`` equals ``block_counts[block]``.
        """
        num_constants = len(stage_meta[k][2])
        if isinstance(reads, int):
            if reads <= 0:
                return
        else:
            emit(indent, f"if {reads} > 0:")
            indent += 1
        emit(indent, f"_rb = rl_{k}.get({block})")
        emit(indent, "if _rb is None:")
        emit(indent + 1, f"_rb = rl_{k}[{block}] = {{}}")
        emit(indent, f"if {vid} not in _rb:")
        emit(indent + 1, f"live_{k} += 1")
        emit(indent, f"_rb[{vid}] = {reads}")
        emit(indent, f"_live = live_{k} + {num_constants}")
        emit(indent, f"if _live > hw_{k}:")
        emit(indent + 1, f"hw_{k} = _live")
        emit(indent, f"_cand = len(_rb) + {num_constants}")
        emit(indent, f"if _cand > pbhw_{k}:")
        emit(indent + 1, f"pbhw_{k} = _cand")

    def emit_rf_consume(indent: int, k: int, operand: int) -> None:
        """Inline ``_FastRF.consume(exec_block, operand)``.

        Only emitted on paths where ``_rb`` is the (resident) inner dict of
        ``exec_block``, guaranteed by the availability conjunction.
        """
        emit(indent, f"_rem = _rb[{operand}] - 1")
        emit(indent, "if _rem <= 0:")
        emit(indent + 1, f"del _rb[{operand}]")
        emit(indent + 1, f"live_{k} -= 1")
        emit(indent + 1, "if not _rb:")
        emit(indent + 2, f"del rl_{k}[eb_{k}]")
        emit(indent, "else:")
        emit(indent + 1, f"_rb[{operand}] = _rem")

    def emit_advance(indent: int, k: int, slot_pos: int, num_slots: int) -> None:
        """Inline ``_FastFU._advance_slot`` with the next slot index static."""
        load_order = stage_meta[k][0]
        if slot_pos + 1 < num_slots:
            emit(indent, f"si_{k} = {slot_pos + 1}")
            emit(indent, f"ne_{k} = cycle + 1")
        else:
            if num_slots > 1:
                emit(indent, f"si_{k} = 0")
            emit(indent, f"eb_{k} += 1")
            if load_order:
                emit(indent, f"lcv_{k} = lc_{k}.get(eb_{k}, -1)")
            emit(indent, f"ne_{k} = cycle + {1 + exec_gap}")
            if not overlap:
                emit(indent, f"bb_{k} = cycle + {1 + exec_gap}")

    def emit_slot_body(indent: int, k: int, slot_pos: int) -> None:
        load_order, slots, const_ids, _read_counts = stage_meta[k]
        is_nop, operands, emits, value_id, write_back = slots[slot_pos]
        num_slots = len(slots)
        if is_nop:
            emit(indent, f"s_ni_{k} += 1")
            emit(indent, f"s_ii_{k} += 1")
            emit_advance(indent, k, slot_pos, num_slots)
            return

        needed = []
        seen: Set[int] = set()
        for operand in operands:
            if operand in const_ids or operand in seen:
                continue
            seen.add(operand)
            needed.append(operand)

        def emit_issue(indent: int) -> None:
            for operand in operands:
                if operand not in const_ids:
                    emit_rf_consume(indent, k, operand)
            emit(indent, f"s_ii_{k} += 1")
            if emits and value_id is not None:
                emit(indent, f"po_{k}.append((cycle + {alu_depth}, eb_{k}, {value_id}))")
            if write_back and value_id is not None:
                emit(indent, f"pw_{k}.append((cycle + {wb_latency}, eb_{k}, {value_id}))")
            emit_advance(indent, k, slot_pos, num_slots)

        def emit_backpressure_then_issue(indent: int) -> None:
            if emits and k < last and capacity > 0:
                emit(indent, f"_press = len(q_{k}) + len(po_{k})")
                emit(indent, f"if _press >= {capacity}:")
                emit(indent + 1, f"wpf_{k} = True")
                emit(indent + 1, f"s_bs_{k} += 1")
                emit(indent, "else:")
                emit(indent + 1, f"if wmp_{k} is None or _press > wmp_{k}:")
                emit(indent + 2, f"wmp_{k} = _press")
                emit_issue(indent + 1)
            else:
                emit_issue(indent)

        if needed:
            emit(indent, f"_rb = rl_{k}.get(eb_{k}, _EMPTY)")
            emit(indent, "if " + " and ".join(f"{o} in _rb" for o in needed) + ":")
            emit_backpressure_then_issue(indent + 1)
            emit(indent, "else:")
            emit(indent + 1, f"s_es_{k} += 1")
        else:
            emit_backpressure_then_issue(indent)

    def emit_dispatch(indent: int, k: int, lo: int, hi: int) -> None:
        """Binary decision tree over the slot index: O(log slots) compares."""
        if hi - lo == 1:
            emit_slot_body(indent, k, lo)
            return
        mid = (lo + hi) // 2
        emit(indent, f"if si_{k} < {mid}:")
        emit_dispatch(indent + 1, k, lo, mid)
        emit(indent, "else:")
        emit_dispatch(indent + 1, k, mid, hi)

    def emit_sync_out(indent: int) -> None:
        for k in range(depth):
            emit(indent, f"fu_{k}.load_block = lb_{k}; fu_{k}.load_index = li_{k}")
            emit(indent, f"fu_{k}.next_load_cycle = nl_{k}; fu_{k}.block_load_barrier = bb_{k}")
            emit(indent, f"fu_{k}.exec_block = eb_{k}; fu_{k}.slot_index = si_{k}")
            emit(indent, f"fu_{k}.next_exec_cycle = ne_{k}")
            emit(indent, f"fu_{k}.loads_issued = s_li_{k}; fu_{k}.instructions_issued = s_ii_{k}")
            emit(indent, f"fu_{k}.nops_issued = s_ni_{k}; fu_{k}.exec_stall_cycles = s_es_{k}")
            emit(indent, f"fu_{k}.load_stall_cycles = s_ls_{k}")
            emit(indent, f"fu_{k}.backpressure_stall_cycles = s_bs_{k}")
            emit(indent, f"_flatten_rf(rf_{k}, rl_{k})")
            emit(indent, f"rf_{k}.high_water = hw_{k}; rf_{k}.per_block_high_water = pbhw_{k}")
        for j in range(depth - 1):
            emit(indent, f"ch_{j}.high_water = chw_{j}; ch_{j}.win_min_empty = wme_{j}")
            emit(indent, f"ch_{j}.win_max_press = wmp_{j}; ch_{j}.win_press_full = wpf_{j}")
            emit(indent, f"ch_{j}.win_push_max = wpm_{j}")

    def emit_sync_in(indent: int) -> None:
        # Detector skips *rebind* load_complete / pending queues / RF dicts /
        # channel deques, so the collection locals must be reloaded (and the
        # RF re-nested) — not just the scalars.
        for k in range(depth):
            load_order, slots, _const_ids, _read_counts = stage_meta[k]
            emit(indent, f"lb_{k} = fu_{k}.load_block; li_{k} = fu_{k}.load_index")
            emit(indent, f"nl_{k} = fu_{k}.next_load_cycle; bb_{k} = fu_{k}.block_load_barrier")
            emit(indent, f"eb_{k} = fu_{k}.exec_block; si_{k} = fu_{k}.slot_index")
            emit(indent, f"ne_{k} = fu_{k}.next_exec_cycle")
            emit(indent, f"s_li_{k} = fu_{k}.loads_issued; s_ii_{k} = fu_{k}.instructions_issued")
            emit(indent, f"s_ni_{k} = fu_{k}.nops_issued; s_es_{k} = fu_{k}.exec_stall_cycles")
            emit(indent, f"s_ls_{k} = fu_{k}.load_stall_cycles")
            emit(indent, f"s_bs_{k} = fu_{k}.backpressure_stall_cycles")
            emit(indent, f"lc_{k} = fu_{k}.load_complete")
            emit(indent, f"po_{k} = fu_{k}.pending_out; pw_{k} = fu_{k}.pending_wb")
            emit(indent, f"rl_{k} = _nest_rf(rf_{k}.reads_left)")
            emit(indent, f"live_{k} = len(rf_{k}.reads_left)")
            emit(indent, f"hw_{k} = rf_{k}.high_water; pbhw_{k} = rf_{k}.per_block_high_water")
            if load_order and slots:
                emit(indent, f"lcv_{k} = lc_{k}.get(eb_{k}, -1)")
        for j in range(depth - 1):
            emit(indent, f"q_{j} = ch_{j}.queue; chw_{j} = ch_{j}.high_water")
            emit(indent, f"wme_{j} = ch_{j}.win_min_empty; wmp_{j} = ch_{j}.win_max_press")
            emit(indent, f"wpf_{j} = ch_{j}.win_press_full; wpm_{j} = ch_{j}.win_push_max")

    emit(0, "def _batch_loop(fus, channels, detector, num_blocks, max_cycles,")
    emit(0, "                received, completion):")
    for k in range(depth):
        load_order, slots, _const_ids, read_counts = stage_meta[k]
        emit(1, f"fu_{k} = fus[{k}]")
        emit(1, f"rf_{k} = fu_{k}.rf")
        if any(wb and vid is not None for _n, _o, _e, vid, wb in slots):
            emit(1, f"rc_{k} = fu_{k}.read_counts")
        if len(load_order) > 1:
            emit(1, f"LO_{k} = {tuple(load_order)!r}")
            emit(1, f"RC_{k} = {tuple(read_counts.get(v, 0) for v in load_order)!r}")
    for j in range(depth - 1):
        emit(1, f"ch_{j} = channels[{j}]")
    emit(1, "cycle = 0")
    emit(1, "completed = 0")
    emit(1, "while True:")
    emit_sync_in(2)
    emit(2, "while completed < num_blocks:")
    emit(3, "if cycle > max_cycles:")
    deadlock_prefix = (
        f"simulation of {schedule.kernel_name!r} on {schedule.overlay.name} exceeded "
    )
    emit(4, f"raise SimulationError({deadlock_prefix!r}")
    emit(4, '                      + "%d cycles; likely a schedule/codegen deadlock"')
    emit(4, "                      % max_cycles)")
    emit(3, "_completions = 0")

    # --- delivery phase: drain every FU's matured pending_out tokens -----
    for k in range(depth):
        _load_order, slots, _const_ids, _read_counts = stage_meta[k]
        if not any(em and vid is not None for _n, _o, em, vid, _wb in slots):
            continue  # this stage never emits; its pending_out stays empty
        emit(3, f"while po_{k} and po_{k}[0][0] <= cycle:")
        emit(4, f"_tok = po_{k}.popleft()")
        if k < last:
            if capacity > 0:
                overflow = (
                    f"FIFO 'ch{k + 1}' overflow (capacity {capacity}); "
                    "the producer should have been back-pressured"
                )
                emit(4, f"if len(q_{k}) >= {capacity}:")
                emit(5, f"raise SimulationError({overflow!r})")
            emit(4, f"q_{k}.append((_tok[1], _tok[2]))")
            emit(4, f"_occ = len(q_{k})")
            emit(4, f"if _occ > chw_{k}:")
            emit(5, f"chw_{k} = _occ")
            emit(4, f"if _occ > wpm_{k}:")
            emit(5, f"wpm_{k} = _occ")
        else:
            emit(4, "_blk = _tok[1]")
            emit(4, "_bucket = received.get(_blk)")
            emit(4, "if _bucket is None:")
            emit(5, "_bucket = received[_blk] = set()")
            emit(4, "_bucket.add(_tok[2])")
            emit(4, f"if len(_bucket) >= {expected} and completion[_blk] is None:")
            emit(5, "completion[_blk] = cycle")
            emit(5, "completed += 1")
            emit(5, "_completions += 1")
            emit(5, "del received[_blk]")

    # --- tick phase: every FU in stage order -----------------------------
    for k in range(depth):
        load_order, slots, _const_ids, read_counts = stage_meta[k]
        has_loads = bool(load_order)
        has_slots = bool(slots)
        wb_any = any(wb and vid is not None for _n, _o, _e, vid, wb in slots)

        if wb_any:
            emit(3, f"while pw_{k} and pw_{k}[0][0] <= cycle:")
            emit(4, f"_tok = pw_{k}.popleft()")
            emit(4, "_vid = _tok[2]")
            emit(4, f"_n = rc_{k}.get(_vid, 0)")
            emit_rf_write(4, k, "_tok[1]", "_vid", "_n")

        exec_gate = has_slots and has_loads and not overlap
        if exec_gate:
            emit(3, "_lup = False")

        if has_loads:
            condition = [f"lb_{k} < num_blocks", f"cycle >= nl_{k}"]
            if has_slots and not overlap:
                condition.append(f"cycle >= bb_{k}")
            if has_slots:
                condition.append(f"lb_{k} <= eb_{k} + {lookahead}")
            emit(3, "if " + " and ".join(condition) + ":")
            if len(load_order) > 1:
                vid_expr = f"LO_{k}[li_{k}]"
                reads_expr: Any = f"RC_{k}[li_{k}]"
            else:
                vid_expr = str(load_order[0])
                reads_expr = read_counts.get(load_order[0], 0)
            if k == 0:
                body = 4  # virtual DMA source: the next token always matches
            else:
                j = k - 1
                emit(4, f"_occ = len(q_{j})")
                emit(4, f"if wme_{j} is None or _occ < wme_{j}:")
                emit(5, f"wme_{j} = _occ")
                emit(4, "if _occ == 0:")
                emit(5, f"s_ls_{k} += 1")
                emit(4, "else:")
                body = 5
                emit(body, f"_tok = q_{j}[0]")
                emit(body, f"if _tok[0] != lb_{k} or _tok[1] != {vid_expr}:")
                mismatch = (
                    f'"FU{k}: expected value N%d of block %d on the input FIFO, '
                    'found N%d of block %d"'
                )
                emit(body + 1, f"raise SimulationError({mismatch}")
                emit(body + 1, f"                      % ({vid_expr}, lb_{k}, _tok[1], _tok[0]))")
                emit(body, f"q_{j}.popleft()")
            emit_rf_write(body, k, f"lb_{k}", vid_expr, reads_expr)
            emit(body, f"s_li_{k} += 1")
            if len(load_order) > 1:
                emit(body, f"li_{k} += 1")
                emit(body, f"nl_{k} = cycle + 1")
                emit(body, f"if li_{k} >= {len(load_order)}:")
                emit(body + 1, f"lc_{k}[lb_{k}] = cycle")
                if has_slots:
                    emit(body + 1, f"if lb_{k} == eb_{k}:")
                    emit(body + 2, f"lcv_{k} = cycle")
                emit(body + 1, f"li_{k} = 0")
                emit(body + 1, f"lb_{k} += 1")
                emit(body + 1, f"nl_{k} = cycle + {1 + load_gap}")
            else:
                emit(body, f"lc_{k}[lb_{k}] = cycle")
                if has_slots:
                    emit(body, f"if lb_{k} == eb_{k}:")
                    emit(body + 1, f"lcv_{k} = cycle")
                emit(body, f"lb_{k} += 1")
                emit(body, f"nl_{k} = cycle + {1 + load_gap}")
            if exec_gate:
                emit(body, "_lup = True")

        if has_slots:
            condition = []
            if exec_gate:
                condition.append("not _lup")
            condition += [f"eb_{k} < num_blocks", f"cycle >= ne_{k}"]
            emit(3, "if " + " and ".join(condition) + ":")
            if has_loads:
                emit(4, f"if lb_{k} <= eb_{k} or cycle <= lcv_{k}:")
                emit(5, f"s_es_{k} += 1")
                emit(4, "else:")
                dispatch = 5
            else:
                dispatch = 4
            emit_dispatch(dispatch, k, 0, len(slots))

    emit(3, "cycle += 1")
    emit(3, "if _completions and detector is not None and completed < num_blocks:")
    emit(4, "break")
    emit_sync_out(2)
    emit(2, "if completed >= num_blocks:")
    emit(3, "return cycle, completed")
    emit(2, "_skip = detector.observe(cycle, completed, received, completion)")
    emit(2, "if _skip is not None:")
    emit(3, "cycle = _skip[0]")
    emit(3, "completed = _skip[1]")
    return "\n".join(lines) + "\n"


class BatchPlan:
    """Compiled per-schedule artifacts of the batched engine.

    Holds the exec-compiled steady-state loop and the value plane that
    executes the schedule's configuration image.  The loop's source is
    compiled and dropped; to inspect it, call :func:`generate_loop_source`,
    which is deterministic.  Plans contain generated functions, so they
    live only in the :func:`plan_for` memo, never in a pickled cache entry.
    """

    __slots__ = ("loop", "vector_evaluator")

    def __init__(self, schedule: OverlaySchedule):
        # _EMPTY is a shared read-only fallback for absent RF blocks; the
        # generated code only consumes operands after membership passed, so
        # it is never mutated.
        namespace: Dict[str, Any] = {
            "SimulationError": SimulationError,
            "_EMPTY": {},
            "_nest_rf": _nest_rf,
            "_flatten_rf": _flatten_rf,
        }
        exec(  # noqa: S102 - generated from the schedule, no external input
            compile(
                generate_loop_source(schedule),
                f"<batchloop:{schedule.kernel_name}/{schedule.overlay.name}>",
                "exec",
            ),
            namespace,
        )
        self.loop = namespace["_batch_loop"]
        self.vector_evaluator = VectorBlockEvaluator(schedule)


#: One plan per live schedule object, keyed by identity (see
#: :class:`~repro.kernels.reference.IdentityMemo`).
_PLANS: IdentityMemo[OverlaySchedule, BatchPlan] = IdentityMemo(BatchPlan)


def plan_for(schedule: OverlaySchedule) -> BatchPlan:
    """Memoised :class:`BatchPlan` for a live schedule object."""
    return _PLANS(schedule)


# ---------------------------------------------------------------------------
# simulator front
# ---------------------------------------------------------------------------
class BatchSimulator(FastSimulator):
    """The fast engine with a generated tick loop, whose value plane
    executes the compiled image.

    On a correctly encoded artifact every result is bit-identical to the
    fast engine's (asserted library-wide by ``tests/test_engine_batchsim.py``).
    Without numpy the value plane falls back to the scalar one, so the
    engine runs anyway.
    Its :class:`BatchPlan` comes from :func:`plan_for`, one per schedule
    object.
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
        # lengths, and the timing memo ticks once per length.
        outputs = self._outputs(blocks)
        lane_results: List[Optional[SimulationResult]] = [
            replace(self._run_timing(len(stream)), outputs=outputs[lane::lanes]) if stream else None
            for lane, stream in enumerate(split_lane_blocks(blocks, lanes))
        ]
        return merge_lane_results(self.schedule, blocks, lane_results)

    def _outputs(self, blocks: List[List[int]]) -> List[List[int]]:
        schedule = self.schedule
        self.inputs = int64_inputs(np, blocks, schedule.dfg.num_inputs, schedule.kernel_name)
        rows = self.plan.vector_evaluator.evaluate(blocks if self.inputs is None else self.inputs)
        if rows is None:
            rows = _functional_outputs(schedule.dfg, blocks)
        return rows

    def _loop(self, *state: Any) -> Tuple[int, int]:
        return self.plan.loop(*state)
