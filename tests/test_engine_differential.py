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

The fast profile runs in tier-1; the deep one is marked ``slow``
(``pytest --runslow``).
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.batchsim import BatchSimulator, plan_for
from repro.engine.fastsim import FastSimulator
from repro.errors import CodegenError, InfeasibleScheduleError
from repro.kernels import get_kernel
from repro.kernels.generators import random_dfg
from repro.kernels.reference import reference_outputs
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V1, V2, V3, V4, V5
from repro.program.codegen import generate_program
from repro.schedule import schedule_with
from repro.sim.overlay import OverlaySimulator

STRATEGIES = ("linear", "clustered", "modulo", "alap")

#: V3 with a second datapath lane: write-back FUs under the multilane merge.
V3_TWO_LANES = dataclasses.replace(V3, name="v3x2", lanes=2)

VARIANTS = (V1, V2, V3, V4, V5, V3_TWO_LANES)

#: Values on both sides of the signed 32-bit wrap, and around zero.
WRAP_EDGES = (-(2 ** 31), -(2 ** 31) + 1, -1, 0, 1, 2 ** 31 - 2, 2 ** 31 - 1)

cases = st.fixed_dictionaries(
    {
        "dfg": st.builds(
            random_dfg,
            num_inputs=st.integers(min_value=1, max_value=5),
            num_operations=st.integers(min_value=3, max_value=28),
            seed=st.integers(min_value=0, max_value=10_000),
        ),
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


def check_case(strategy, case):
    dfg, variant = case["dfg"], case["variant"]
    if variant.write_back:
        overlay = LinearOverlay.fixed(
            variant, case["fixed_depth"], fifo_depth=case["fifo_depth"]
        )
    else:
        overlay = LinearOverlay.for_kernel(variant, dfg, fifo_depth=case["fifo_depth"])
    try:
        schedule = schedule_with(strategy, dfg, overlay)
        generate_program(schedule)
    except (InfeasibleScheduleError, CodegenError):
        return
    blocks = input_stream(dfg.num_inputs, case["num_blocks"], case["input_seed"])
    assert_engines_agree(schedule, blocks)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestThreeEnginesAgree:
    @FAST
    @given(case=cases)
    def test_random_kernels(self, strategy, case):
        check_case(strategy, case)

    @pytest.mark.slow
    @DEEP
    @given(case=cases)
    def test_random_kernels_deep(self, strategy, case):
        check_case(strategy, case)


@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2-multilane"])
def test_input_outside_int32_forces_the_scalar_value_plane(variant):
    dfg = get_kernel("gradient")
    schedule = schedule_with("linear", dfg, LinearOverlay.for_kernel(variant, dfg))
    blocks = input_stream(dfg.num_inputs, 9, seed=7)
    blocks[4][0] = 2 ** 31  # one past the signed 32-bit range
    assert plan_for(schedule).evaluate(blocks) is None
    assert_engines_agree(schedule, blocks)
