"""Differential property: the three engines agree on random kernels.

The library-wide equivalence suites pin the nine hand-written kernels.  This
property draws the rest of the space: a random straight-line kernel (1-5
inputs, 3-28 operations, like ``test_property_based.kernel_strategy``), a
scheduling strategy, an FU variant (V1-V5, plus V3 widened to two lanes so
write-back FUs meet the multilane merge), a FIFO depth, a stream length and
an input stream in which about one value in ten sits on a 32-bit wrap edge.

Each case must either fail to compile with ``InfeasibleScheduleError`` or
``CodegenError`` (no other exception is allowed), or simulate to the same
:class:`~repro.sim.overlay.SimulationResult` — every field — on ``cycle``,
``fast`` and ``batched``, with outputs equal to the golden reference.

The timing memo is keyed by schedule content, so one entry serves every
schedule object of equal content.  The property therefore also runs each
case on a twin: the same kernel under another name, scheduled again after
``fast`` timed the first schedule, so the twin's ``fast`` and ``batched``
lanes are memo hits across schedule objects, with the memo left warm across
examples.

Both engines time lanes with one max-plus block recurrence, which jumps
ahead once every stage's events move on by a constant per block.  A second
property checks the jumps themselves: on random kernels over the baseline
and V1-V5 at FIFO depths {2, 3, 5, 8, 16, 32, 33}, lanes of 5, 12 and 40
blocks (which can end inside the window an early steady jump rebuilds) and
of 96 and 257 (long enough that nearly every one jumps) equal the same
lanes evaluated block by block (``fast_forward=False``), field for field.  And the recurrence refuses a malformed schedule when it builds its
block template, where the cycle engine fails too: a stage whose load order
is not its upstream's emission order, an operand nothing writes, a block
that waits on itself, a last stage that emits a value twice, and a
register file that overflows (the last with the cycle engine's own
message).  A value written twice in one block, which the cycle engine
runs, is refused too.  And slots of the last block that would issue after
the last completion count for nothing, as on the cycle engine, whose run
ends there.

The fast profiles run in tier-1; the deep ones are marked ``slow``
(``pytest --runslow``).
"""

import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dfg.opcodes import OpCode
from repro.engine.batchsim import BatchSimulator, plan_for
from repro.engine.fastsim import _DIGESTS, FastSimulator
from repro.errors import CodegenError, InfeasibleScheduleError, SimulationError
from repro.frontend import parse_c_kernel
from repro.kernels import get_kernel
from repro.kernels.generators import random_dfg
from repro.kernels.reference import reference_outputs
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2, V3, V4, V5
from repro.program.codegen import generate_program
from repro.schedule import schedule_kernel, schedule_with
from repro.schedule.types import ScheduledOp, SlotKind
from repro.sim.overlay import OverlaySimulator

STRATEGIES = ("linear", "clustered", "modulo", "alap")

#: V3 with a second datapath lane: write-back FUs under the multilane merge.
V3_TWO_LANES = dataclasses.replace(V3, name="v3x2", lanes=2)

VARIANTS = (V1, V2, V3, V4, V5, V3_TWO_LANES)

#: Values on both sides of the signed 32-bit wrap, and around zero.
WRAP_EDGES = (-(2 ** 31), -(2 ** 31) + 1, -1, 0, 1, 2 ** 31 - 2, 2 ** 31 - 1)

kernels = st.builds(
    random_dfg,
    num_inputs=st.integers(min_value=1, max_value=5),
    num_operations=st.integers(min_value=3, max_value=28),
    seed=st.integers(min_value=0, max_value=10_000),
)

cases = st.fixed_dictionaries(
    {
        "dfg": kernels,
        "variant": st.sampled_from(VARIANTS),
        "fixed_depth": st.sampled_from((4, 8)),
        "fifo_depth": st.sampled_from((2, 8, 32)),
        "num_blocks": st.sampled_from((1, 2, 3, 17, 64)),
        "input_seed": st.integers(min_value=0, max_value=2 ** 32 - 1),
    }
)

FAST = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
DEEP = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def input_stream(num_inputs, num_blocks, seed):
    """Small random values, with about one in ten taken from ``WRAP_EDGES``."""
    rng = random.Random(seed)

    def value():
        if rng.random() < 0.1:
            return rng.choice(WRAP_EDGES)
        return rng.randint(-64, 64)

    return [[value() for _ in range(num_inputs)] for _ in range(num_blocks)]


def assert_engines_agree(schedule, blocks):
    cycle = OverlaySimulator(schedule).run(blocks)
    fast = FastSimulator(schedule).run(blocks)
    batched = BatchSimulator(schedule).run(blocks)
    assert fast == cycle
    assert batched == cycle
    assert cycle.outputs == reference_outputs(schedule.dfg, blocks)


def overlay_for(case):
    variant, dfg = case["variant"], case["dfg"]
    if variant.write_back:
        return LinearOverlay.fixed(variant, case["fixed_depth"], fifo_depth=case["fifo_depth"])
    return LinearOverlay.for_kernel(variant, dfg, fifo_depth=case["fifo_depth"])


def check_case(strategy, case, twin=False):
    dfg = case["dfg"]
    overlay = overlay_for(case)
    try:
        schedule = schedule_with(strategy, dfg, overlay)
        generate_program(schedule)
    except (InfeasibleScheduleError, CodegenError):
        return
    blocks = input_stream(dfg.num_inputs, case["num_blocks"], case["input_seed"])
    if twin:
        FastSimulator(schedule).run(blocks)
        first, schedule = schedule, schedule_with(strategy, dfg.copy(name="twin"), overlay)
        assert _DIGESTS(schedule) == _DIGESTS(first)
    assert_engines_agree(schedule, blocks)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestThreeEnginesAgree:
    @FAST
    @given(case=cases)
    def test_random_kernels(self, strategy, case):
        check_case(strategy, case)

    @FAST
    @given(case=cases)
    def test_random_kernels_on_a_warm_memo(self, strategy, case):
        check_case(strategy, case, twin=True)

    @pytest.mark.slow
    @DEEP
    @given(case=cases)
    def test_random_kernels_deep(self, strategy, case):
        check_case(strategy, case)

    @pytest.mark.slow
    @DEEP
    @given(case=cases)
    def test_random_kernels_deep_on_a_warm_memo(self, strategy, case):
        check_case(strategy, case, twin=True)


@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2-multilane"])
def test_input_outside_int32_forces_the_scalar_value_plane(variant):
    dfg = get_kernel("gradient")
    schedule = schedule_with("linear", dfg, LinearOverlay.for_kernel(variant, dfg))
    blocks = input_stream(dfg.num_inputs, 9, seed=7)
    blocks[4][0] = 2 ** 31  # one past the signed 32-bit range
    assert plan_for(schedule).evaluate(blocks) is None
    assert_engines_agree(schedule, blocks)


# ---------------------------------------------------------------------------
# the recurrence: jumps equal block-by-block evaluation; malformed schedules
# ---------------------------------------------------------------------------
jump_cases = st.fixed_dictionaries(
    {
        "dfg": kernels,
        "strategy": st.sampled_from(STRATEGIES),
        "variant": st.sampled_from((BASELINE, V1, V2, V3, V4, V5)),
        "fixed_depth": st.sampled_from((4, 8)),
        # Depths where the free slot's look-back (ceil(fifo / tokens)) and a
        # push's read of pops (ceil((fifo - 1) / tokens)) round apart and the
        # window is odd, and lanes that end inside the window an early
        # steady jump rebuilds.
        "fifo_depth": st.sampled_from((2, 3, 5, 8, 16, 32, 33)),
        "num_blocks": st.sampled_from((5, 12, 40, 96, 257)),
    }
)


def check_jumps(case):
    try:
        schedule = schedule_with(case["strategy"], case["dfg"], overlay_for(case))
        generate_program(schedule)
    except (InfeasibleScheduleError, CodegenError):
        return
    blocks = input_stream(case["dfg"].num_inputs, case["num_blocks"], seed=1)
    jumping = FastSimulator(schedule)
    assert jumping.run(blocks) == FastSimulator(schedule, fast_forward=False).run(blocks)
    for event in jumping.fast_forward_events:
        assert event["kind"] in ("steady", "ramp") and event["periods"] >= 1


class TestJumpsEqualEveryBlock:
    @FAST
    @given(case=jump_cases)
    # A lane whose every stage is periodic while a reference between stages
    # of different shifts already binds: no ramp jump may start there.
    @example(case={"dfg": random_dfg(num_inputs=1, num_operations=7, seed=10),
                   "strategy": "alap", "variant": BASELINE, "fixed_depth": 4,
                   "fifo_depth": 8, "num_blocks": 96})
    def test_random_kernels(self, case):
        check_jumps(case)

    @pytest.mark.slow
    @DEEP
    @given(case=jump_cases)
    def test_random_kernels_deep(self, case):
        check_jumps(case)


#: ``k`` on two V3 FUs: stage 0 runs ``5 = a*3 [wb ndf], 7 = a-c, 10 = b*5,
#: NOP, NOP, 6 = 5+b``; stage 1 loads ``7, 10, 6`` and runs ``8 = 6*7 [wb
#: ndf], NOP x4, 11 = 8+10``.
SOURCE = "int k(int a, int b, int c) { return (a * 3 + b) * (a - c) + b * 5; }"


@lru_cache(maxsize=None)
def _two_stage_schedule():
    return schedule_kernel(parse_c_kernel(SOURCE), LinearOverlay.fixed(V3, 2, fifo_depth=4))


def _edited(stage_index, load_order=None, **slot_changes):
    """The two-stage schedule with one stage's load order or slots edited
    (``s5={...}`` edits slot 5)."""
    schedule = _two_stage_schedule()
    stages = [
        dataclasses.replace(stage, load_order=list(stage.load_order), slots=list(stage.slots))
        for stage in schedule.stages
    ]
    stage = stages[stage_index]
    if load_order is not None:
        stage.load_order = load_order
    for name, changes in slot_changes.items():
        index = int(name[1:])
        stage.slots[index] = dataclasses.replace(stage.slots[index], **changes)
    return dataclasses.replace(schedule, stages=stages)


def _with_trailing_nops(stage_index, count):
    """The two-stage schedule with ``count`` NOPs after one stage's slots."""
    schedule = _two_stage_schedule()
    stages = [dataclasses.replace(stage, slots=list(stage.slots)) for stage in schedule.stages]
    stages[stage_index].slots += [ScheduledOp.nop()] * count
    return dataclasses.replace(schedule, stages=stages)


def _overflowing_schedule():
    """A V1 schedule whose stage 2 needs 17 registers of a 16-entry frame."""
    dfg = random_dfg(num_inputs=5, num_operations=25, seed=3244)
    return schedule_with("linear", dfg, LinearOverlay.for_kernel(V1, dfg))


def _refusals(schedule):
    """Each engine's ``SimulationError`` message on a short stream."""
    blocks = input_stream(schedule.dfg.num_inputs, 4, seed=2)
    messages = {}
    for engine in (OverlaySimulator, FastSimulator, BatchSimulator):
        with pytest.raises(SimulationError) as excinfo:
            engine(schedule).run(blocks)
        messages[engine.__name__] = str(excinfo.value)
    assert messages["BatchSimulator"] == messages["FastSimulator"]
    return messages


class TestLastBlock:
    @pytest.mark.parametrize("num_blocks", [1, 2, 9])
    @pytest.mark.parametrize("stage_index", [0, 1])
    def test_slots_after_the_last_completion_never_issue(self, stage_index, num_blocks):
        # Fourteen NOPs close each block of one stage.  On the last stage the
        # last block's NOPs fall after its last completion, where the run
        # ends, so they are never issued or stalled on.
        schedule = _with_trailing_nops(stage_index, 14)
        blocks = input_stream(schedule.dfg.num_inputs, num_blocks, seed=3)
        cycle = OverlaySimulator(schedule).run(blocks)
        assert FastSimulator(schedule).run(blocks) == cycle
        assert BatchSimulator(schedule).run(blocks) == cycle
        issued = cycle.fu_stats[stage_index].instructions_issued
        assert (issued < 20 * num_blocks) == (stage_index == 1)


class TestMalformedSchedules:
    def test_load_order_that_is_not_the_upstream_emission_order(self):
        messages = _refusals(_edited(1, load_order=[10, 7, 6]))
        assert messages["FastSimulator"] == (
            "FU1 loads [10, 7, 6] but FU0 emits [7, 10, 6]; the stream between them is broken"
        )

    def test_operand_that_nothing_writes(self):
        messages = _refusals(_edited(1, s5={"operands": (8, 5)}))
        assert "FU1 slot 5 reads N5, which FU1 neither loads" in messages["FastSimulator"]
        assert "exceeded" in messages["OverlaySimulator"]

    def test_block_that_waits_on_itself(self):
        # Slot 0 reads 6, which slot 5 now writes back: later in its block.
        messages = _refusals(_edited(0, s0={"operands": (6, 1)}, s5={"write_back": True}))
        assert "waits on a later event of its own block" in messages["FastSimulator"]
        assert "exceeded" in messages["OverlaySimulator"]

    def test_register_file_overflow(self):
        messages = _refusals(_overflowing_schedule())
        assert messages["FastSimulator"] == messages["OverlaySimulator"]
        assert "'FU2.rf' overflows: peak 17 entries" in messages["FastSimulator"]

    def test_value_the_last_stage_emits_twice(self):
        # Slots 1 and 2 of stage 1 both forward 10, so a block's output never
        # holds as many distinct values as the stage emits.
        forward_10 = {"kind": SlotKind.PASS, "value_id": 10, "opcode": OpCode.PASS,
                      "operands": (10,), "forward": True}
        messages = _refusals(_edited(1, s1=forward_10, s2=forward_10))
        assert messages["FastSimulator"] == (
            "FU1 emits a value twice per block, so no block completes"
        )
        assert "exceeded" in messages["OverlaySimulator"]

    def test_value_written_twice_in_one_block(self):
        # Slot 3 computes 5 again (the verifier's SCHED002).  The cycle engine
        # runs it, resetting the value's read count at the second write; the
        # recurrence gives every value one register-file entry and refuses.
        schedule = _edited(0, s3={"kind": SlotKind.COMPUTE, "value_id": 5, "opcode": OpCode.MUL,
                                  "operands": (1, 4), "write_back": True, "forward": False})
        blocks = input_stream(schedule.dfg.num_inputs, 4, seed=2)
        for engine in (FastSimulator, BatchSimulator):
            with pytest.raises(SimulationError, match="FU0 writes N5 of each block more than once"):
                engine(schedule).run(blocks)
