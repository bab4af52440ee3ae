"""Property-based tests (hypothesis) over randomly generated kernels.

The hand-written benchmark kernels only exercise a handful of DFG shapes, so
these tests generate random straight-line kernels and check the invariants the
tool flow must uphold for *any* legal kernel:

* schedulers respect data dependences and the IWP spacing;
* the analytic II equals the simulator's steady-state measurement;
* the generated instruction streams round-trip through the binary encoding;
* the simulated overlay computes exactly what the reference model computes,
  on every FU variant;
* the auto-tuner is a pure function of its spec and its result store — the
  same :class:`~repro.specs.TuneSpec` against the same store reproduces the
  identical :class:`~repro.specs.TuneResult`, and a resumed tune never
  re-simulates a stored frontier point.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dfg.analysis import asap_stage_assignment, dfg_depth, stage_traffic
from repro.dfg.transforms import optimize
from repro.dfg.validate import collect_validation_errors
from repro.errors import RegisterAllocationError, SimulationError
from repro.kernels.generators import random_dfg
from repro.kernels.reference import evaluate_dfg, random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import FU_VARIANTS, V1, V3
from repro.overlay.isa import decode_instruction, encode_instruction
from repro.program.codegen import generate_program
from repro.program.regalloc import allocate_registers
from repro.schedule import analytic_ii, schedule_kernel
from repro.schedule.ordering import verify_ordering
from repro.schedule.types import SlotKind
from repro.sim.overlay import simulate_schedule

#: Strategy for seeded random kernels that stay small enough to simulate fast.
kernel_strategy = st.builds(
    random_dfg,
    num_inputs=st.integers(min_value=1, max_value=5),
    num_operations=st.integers(min_value=3, max_value=28),
    seed=st.integers(min_value=0, max_value=10_000),
)

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDFGInvariants:
    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_random_kernels_are_structurally_sound(self, dfg):
        errors = [
            e
            for e in collect_validation_errors(dfg, require_live=False)
            if "unused" not in e
        ]
        assert errors == []

    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_optimizer_preserves_semantics(self, dfg):
        optimized = optimize(dfg)
        block = [7 * (i + 1) for i in range(dfg.num_inputs)]
        assert evaluate_dfg(optimized, block) == evaluate_dfg(dfg, block)

    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_stage_traffic_is_conservative(self, dfg):
        assignment = asap_stage_assignment(dfg)
        traffic = stage_traffic(dfg, assignment)
        # Every stage's loads equal the previous stage's emissions.
        for previous, current in zip(traffic, traffic[1:]):
            assert set(previous.emits) == set(current.loads)
        # The final stage emits every output-feeding value.
        outputs = {o.operands[0] for o in dfg.outputs()}
        assert outputs <= set(traffic[-1].emits) | {
            v for t in traffic for v in t.computes
        }


class TestSchedulingInvariants:
    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_asap_schedule_covers_all_ops_without_nops(self, dfg):
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        computed = [
            s.value_id
            for stage in schedule.stages
            for s in stage.slots
            if s.kind is SlotKind.COMPUTE
        ]
        assert sorted(computed) == sorted(n.node_id for n in dfg.operations())
        assert schedule.total_nops == 0

    @given(dfg=kernel_strategy, depth=st.integers(min_value=2, max_value=6))
    @settings(**_SETTINGS)
    def test_fixed_depth_schedule_respects_precedence_and_iwp(self, dfg, depth):
        overlay = LinearOverlay.fixed(V3, depth)
        schedule = schedule_kernel(dfg, overlay)
        assignment = schedule.assignment
        for node in dfg.operations():
            for operand in node.operands:
                if operand in assignment:
                    assert assignment[operand] <= assignment[node.node_id]
        for stage in schedule.stages:
            assert verify_ordering(dfg, stage.slots, V3.iwp) == []

    @given(dfg=kernel_strategy)
    @example(dfg=random_dfg(num_inputs=5, num_operations=25, seed=3244))
    @settings(**_SETTINGS)
    def test_encoded_programs_roundtrip(self, dfg):
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        if _frame_overflows(schedule):
            # A stage needs more registers than the frame holds, so codegen
            # refuses the schedule, as the simulation tests below expect.
            with pytest.raises(RegisterAllocationError):
                generate_program(schedule)
            return
        program = generate_program(schedule)
        for fu_program in program.fu_programs:
            for word, instruction in zip(
                fu_program.encoded_words(), fu_program.instructions
            ):
                assert decode_instruction(word) == instruction


def _frame_overflows(schedule):
    """Whether codegen's register allocation refuses a stage of ``schedule``."""
    try:
        for stage in schedule.stages:
            allocate_registers(stage, schedule.variant, schedule.dfg)
    except RegisterAllocationError:
        return True
    return False


class TestSimulationInvariants:
    @given(
        dfg=kernel_strategy,
        variant_name=st.sampled_from(["baseline", "v1", "v2"]),
    )
    @example(dfg=random_dfg(num_inputs=5, num_operations=28, seed=3321), variant_name="v1")
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_simulation_matches_reference_on_asap_overlays(self, dfg, variant_name):
        variant = FU_VARIANTS[variant_name]
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(variant, dfg))
        if _frame_overflows(schedule):
            # A stage needs more registers than the frame holds; the cycle
            # engine's capacity check refuses the same schedule.
            with pytest.raises(SimulationError):
                simulate_schedule(schedule, num_blocks=5, seed=3)
            return
        result = simulate_schedule(schedule, num_blocks=5, seed=3)
        assert result.matches_reference
        assert result.measured_ii == pytest.approx(analytic_ii(schedule), abs=0.01)

    @given(dfg=kernel_strategy, depth=st.integers(min_value=3, max_value=8))
    @example(dfg=random_dfg(num_inputs=5, num_operations=28, seed=3238), depth=5)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_simulation_matches_reference_on_fixed_depth_overlays(self, dfg, depth):
        schedule = schedule_kernel(dfg, LinearOverlay.fixed(V3, depth))
        try:
            result = simulate_schedule(schedule, num_blocks=4, seed=5)
        except SimulationError:
            # Only a schedule that register allocation refuses may be
            # refused.  Not the converse: allocation gives each value of a
            # write-back stage its own register, while the engine frees an
            # entry at its last use.
            assert _frame_overflows(schedule)
            return
        assert result.matches_reference

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_input_block_generator_respects_kernel_shape(self, seed):
        dfg = random_dfg(3, 10, seed=seed)
        blocks = random_input_blocks(dfg, 4, seed=seed)
        assert all(len(b) == dfg.num_inputs for b in blocks)


class TestTunerInvariants:
    """The auto-tuner is deterministic and resume never re-simulates.

    One session-scoped toolchain amortises compilation across examples; a
    fresh store directory per example keeps the resume accounting exact.
    Temp dirs are managed inline because hypothesis re-runs the function
    body many times per test (function-scoped fixtures would be shared).
    """

    _toolchain = None

    @classmethod
    def _session(cls):
        from repro.api import Toolchain
        from repro.engine.cache import ScheduleCache

        if cls._toolchain is None:
            cls._toolchain = Toolchain(cache=ScheduleCache())
        return cls._toolchain

    @given(
        budget=st.integers(min_value=1, max_value=3),
        objective=st.sampled_from(["ii", "gops", "latency"]),
        model=st.sampled_from(["analytic", "warmup-aware"]),
        variants=st.sets(
            st.sampled_from(["v1", "v2", "v3"]), min_size=1, max_size=3
        ),
        schedulers=st.sets(
            st.sampled_from(["linear", "clustered"]), min_size=1, max_size=2
        ),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_spec_and_store_reproduce_the_identical_result(
        self, budget, objective, model, variants, schedulers
    ):
        from repro.engine.store import ResultStore
        from repro.specs import TuneSpec
        from repro.tune import tune

        root = tempfile.mkdtemp(prefix="tune-prop-")
        try:
            spec = TuneSpec(
                kernel="gradient",
                variants=tuple(sorted(variants)),
                schedulers=tuple(sorted(schedulers)),
                model=model,
                objective=objective,
                budget=budget,
                jobs=1,
                store_dir=root,
            )
            first = tune(spec, toolchain=self._session())
            probe = ResultStore(root)
            second = tune(spec, toolchain=self._session(), store=probe)
            assert second == first
            # Resume contract: every frontier point was served from the
            # store — nothing was re-simulated, nothing re-written.
            assert probe.stats.writes == 0
            assert probe.stats.hits == first.num_simulated
            assert probe.stats.misses == 0
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @given(budget=st.integers(min_value=1, max_value=3))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_enlarged_budget_only_simulates_the_new_frontier_points(self, budget):
        from repro.engine.store import ResultStore
        from repro.specs import TuneSpec
        from repro.tune import tune

        root = tempfile.mkdtemp(prefix="tune-grow-")
        try:
            base = TuneSpec(
                kernel="gradient",
                variants=("v1", "v2", "v3"),
                schedulers=("linear", "clustered"),
                budget=budget,
                jobs=1,
                store_dir=root,
            )
            small = tune(base, toolchain=self._session())
            probe = ResultStore(root)
            import dataclasses

            grown = tune(
                dataclasses.replace(base, budget=budget + 1),
                toolchain=self._session(),
                store=probe,
            )
            # The triage ranking is deterministic, so the larger frontier is
            # a superset: exactly one new point simulates, the rest resume.
            assert probe.stats.hits == small.num_simulated
            assert probe.stats.writes == grown.num_simulated - small.num_simulated
            assert grown.num_simulated == min(
                budget + 1, grown.num_feasible
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_calibrated_tuner_is_deterministic_once_the_store_is_fixed(self):
        from repro.engine.store import ResultStore
        from repro.specs import TuneSpec
        from repro.tune import tune

        root = tempfile.mkdtemp(prefix="tune-cal-")
        try:
            spec = TuneSpec(
                kernel="gradient",
                variants=("v1", "v2"),
                schedulers=("linear",),
                model="calibrated",
                budget=2,
                jobs=1,
                store_dir=root,
            )
            tune(spec, toolchain=self._session())  # seeds the store + fit rows
            second = tune(spec, toolchain=self._session())
            third = tune(spec, toolchain=self._session(), store=ResultStore(root))
            assert third == second
        finally:
            shutil.rmtree(root, ignore_errors=True)
