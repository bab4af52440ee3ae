"""The engines' lane-timing memo.

A lane's timing depends on what the tick loop reads of the schedule, the
lane length, the cycle cap and ``fast_forward``, never on the values
streamed, so ``FastSimulator`` keeps one process-wide memo of lane timings
(``fastsim._TIMINGS``), keyed by a digest of that schedule content, and a
repeated stream shape skips the tick loop.  This file pins what a hit must
keep:

* every ``SimulationResult`` field equals an uncached run's, library-wide on
  V1-V5 at FIFO depth {2, 32} on ``fast`` and ``batched``;
* a returned result shares nothing with the memo;
* ``fast`` and ``batched`` share one entry per shape, while ``fast_forward``
  on and off, and a cycle cap too small to finish, each get their own;
* the key covers exactly what the tick loop reads: changing any one keyed
  field ticks again, while schedule objects of equal content, from other
  kernels, strategies or overlay names, share one entry, and each result
  equals the cycle engine's under its own names;
* the new stream is still evaluated and checked, so a codegen fault still
  reads ``matches_reference=False`` on a hit, also of a timing ``fast``
  stored;
* entries outlive their schedule object, and the memo covers at most
  ``TIMING_MEMO_BLOCKS`` blocks, each entry charged at least
  ``TIMING_MEMO_MIN_BLOCKS``, dropping the least recently used first, so a
  longer lane is never kept;
* a multilane run ticks its loop once per distinct lane length, and the
  other engine reuses those lane timings;
* threads on schedule objects of equal content read identical results.
"""

import dataclasses
import gc
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from repro import OverlaySpec, Toolchain
from repro.dfg.graph import DFG
from repro.dfg.node import DFGNode
from repro.dfg.opcodes import OpCode
from repro.engine import fastsim
from repro.engine.batchsim import BatchSimulator
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import FastSimulator, clear_timing_memo
from repro.errors import SimulationError
from repro.frontend import parse_c_kernel
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import FU_VARIANTS, V1, V3, FUVariant
from repro.overlay.isa import InstructionKind
from repro.program import codegen
from repro.schedule import schedule_kernel, schedule_with
from repro.schedule.types import SlotKind
from repro.sim.overlay import OverlaySimulator, SimulationResult, simulate_schedule

VARIANTS = ("v1", "v2", "v3", "v4", "v5")
FIFO_DEPTHS = (2, 32)
ENGINES = ("fast", "batched")
SIMULATORS = {"fast": FastSimulator, "batched": BatchSimulator}
FIELDS = [field.name for field in dataclasses.fields(SimulationResult)]


@lru_cache(maxsize=None)
def _toolchain():
    return Toolchain(cache=ScheduleCache(capacity=256))


def _schedule(name, variant, fifo_depth=32):
    return _toolchain().compile(name, OverlaySpec(variant=variant, fifo_depth=fifo_depth)).schedule


def _fields(result):
    return {name: getattr(result, name) for name in FIELDS}


@pytest.fixture
def lane_timings(monkeypatch):
    """Count the lane timings that run the tick loop (memo misses)."""
    runs = []
    time_lane = FastSimulator._time_lane

    def counting(self, num_blocks, max_cycles):
        runs.append((type(self).__name__, num_blocks))
        return time_lane(self, num_blocks, max_cycles)

    monkeypatch.setattr(FastSimulator, "_time_lane", counting)
    return runs


def _hit_and_uncached(schedule, engine, num_blocks):
    """A memo hit on a new stream, and the same run with the memo cleared."""
    simulate_schedule(schedule, num_blocks=num_blocks, seed=1, engine=engine)
    hit = simulate_schedule(schedule, num_blocks=num_blocks, seed=2, engine=engine)
    clear_timing_memo()
    uncached = simulate_schedule(schedule, num_blocks=num_blocks, seed=2, engine=engine)
    return hit, uncached


class TestHitsEqualUncachedRuns:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("fifo_depth", FIFO_DEPTHS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_library(self, name, variant, fifo_depth, engine, lane_timings):
        hit, uncached = _hit_and_uncached(_schedule(name, variant, fifo_depth), engine, 40)
        assert _fields(hit) == _fields(uncached)
        assert hit.matches_reference is True
        # The first run and the uncached one ticked; the hit did not.
        assert len(lane_timings) == 2

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("num_blocks", [1, 40, 41])
    def test_dual_lane_v2_at_odd_and_even_block_counts(self, num_blocks, engine):
        schedule = _schedule("qspline", "v2")
        assert schedule.variant.lanes == 2
        hit, uncached = _hit_and_uncached(schedule, engine, num_blocks)
        assert _fields(hit) == _fields(uncached)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_hit_replays_the_fast_forward_log(self, engine):
        schedule = _schedule("poly7", "v4", 2)
        blocks = random_input_blocks(schedule.dfg, 300, seed=4)
        first = SIMULATORS[engine](schedule)
        first.run(blocks)
        assert first.fast_forward_events
        second = SIMULATORS[engine](schedule)
        second.run(blocks)
        assert second.fast_forward_events == first.fast_forward_events
        second.fast_forward_events[0]["periods"] = -1
        third = SIMULATORS[engine](schedule)
        third.run(blocks)
        assert third.fast_forward_events == first.fast_forward_events


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", ["v1", "v2"])
def test_mutating_a_result_leaves_the_next_hit_unchanged(variant, engine):
    schedule = _schedule("gradient", variant)
    blocks = random_input_blocks(schedule.dfg, 33, seed=6)
    expected = _fields(SIMULATORS[engine](schedule).run(blocks))
    for _ in range(2):  # once on the miss's result, once on a hit's
        result = SIMULATORS[engine](schedule).run(blocks)
        result.completion_cycles[0] += 1000
        result.completion_cycles.append(7)
        result.fu_stats[0].loads_issued += 1
        result.fu_stats.append(result.fu_stats[0])
        for high_water in (
            result.fifo_high_water, result.rf_high_water, result.rf_per_block_high_water
        ):
            high_water[0] += 1
            high_water.append(0)
    assert _fields(SIMULATORS[engine](schedule).run(blocks)) == expected


class TestKey:
    @pytest.mark.parametrize("first", ENGINES)
    def test_fast_and_batched_share_one_entry(self, first, lane_timings):
        schedule = _schedule("poly7", "v4", 2)
        blocks = random_input_blocks(schedule.dfg, 300, seed=2)
        order = ENGINES if first == "fast" else ENGINES[::-1]
        simulators = {engine: SIMULATORS[engine](schedule) for engine in order}
        results = {engine: _fields(simulators[engine].run(blocks)) for engine in order}
        assert results["batched"] == results["fast"]
        fast, batched = simulators["fast"], simulators["batched"]
        assert fast.fast_forward_events, "the shape never fast-forwarded"
        assert batched.fast_forward_events == fast.fast_forward_events
        assert lane_timings == [(SIMULATORS[first].__name__, 300)]

    def test_fast_forward_off_gets_its_own_entry(self, lane_timings):
        schedule = _schedule("poly7", "v4", 2)
        blocks = random_input_blocks(schedule.dfg, 200, seed=2)
        on = FastSimulator(schedule).run(blocks)
        for _ in range(2):
            simulator = FastSimulator(schedule, fast_forward=False)
            off = simulator.run(blocks)
            assert simulator.fast_forward_events == []
            assert _fields(off) == _fields(on)
        assert len(lane_timings) == 2

    def test_a_cycle_cap_too_small_still_raises_after_a_run_at_the_default_cap(self):
        schedule = _schedule("qspline", "v1")
        blocks = random_input_blocks(schedule.dfg, 24, seed=2)
        for engine in SIMULATORS.values():
            engine(schedule).run(blocks)
            with pytest.raises(SimulationError, match="exceeded 10 cycles"):
                engine(schedule, max_cycles=10).run(blocks)

    def test_each_lane_length_is_its_own_entry(self, lane_timings):
        schedule = _schedule("gradient", "v1")
        for num_blocks in (5, 6, 5, 6):
            simulate_schedule(schedule, num_blocks=num_blocks, engine="fast")
        assert lane_timings == [("FastSimulator", 5), ("FastSimulator", 6)]


#: A kernel whose V3x2 schedule has every keyed slot field: three loads, two
#: constants, write-back and forwarded slots, and NOPs.  Stage 0 runs
#: ``5 = a*3 [wb ndf], 7 = a-c, 10 = b*5, NOP, NOP, 6 = 5+b``; stage 1 loads
#: ``7, 10, 6`` and runs ``8 = 6*7 [wb ndf], NOP x4, 11 = 8+10``.
KEYED_SOURCE = "int k(int a, int b, int c) { return (a * 3 + b) * (a - c) + b * 5; }"


@lru_cache(maxsize=None)
def _keyed_schedule():
    dfg = parse_c_kernel(KEYED_SOURCE)
    return schedule_kernel(dfg, LinearOverlay.fixed(V3, 2, fifo_depth=4))


def _edit_slot(stage_index, slot_index, **changes):
    def edit(schedule):
        stages = [dataclasses.replace(stage, slots=list(stage.slots)) for stage in schedule.stages]
        slots = stages[stage_index].slots
        slots[slot_index] = dataclasses.replace(slots[slot_index], **changes)
        return dataclasses.replace(schedule, stages=stages)

    return edit


def _swap_loads(schedule):
    stages = [dataclasses.replace(stage) for stage in schedule.stages]
    first, second, *rest = stages[0].load_order
    stages[0].load_order = [second, first, *rest]
    return dataclasses.replace(schedule, stages=stages)


def _compute_a_constant(schedule):
    """The same slots over a graph whose first constant (node 4, after the
    three inputs) is computed from two inputs instead."""
    dfg = DFG(schedule.dfg.name)
    for node in schedule.dfg.nodes():
        if node.node_id == 4:
            assert node.is_const
            node = DFGNode(node_id=4, opcode=OpCode.ADD, operands=(1, 2))
        dfg.add_node(node)
    return dataclasses.replace(schedule, dfg=dfg)


def _with_overlay(**changes):
    return lambda schedule: dataclasses.replace(
        schedule, overlay=dataclasses.replace(schedule.overlay, **changes)
    )


def _with_variant(**changes):
    return lambda schedule: dataclasses.replace(
        schedule,
        overlay=dataclasses.replace(
            schedule.overlay, variant=dataclasses.replace(schedule.variant, **changes)
        ),
    )


def _with_variant_property(name, value):
    """V3 with one derived timing parameter (a property) overridden."""
    variant_type = type("EditedVariant", (FUVariant,), {name: property(lambda self: value)})
    variant = variant_type(
        **{field.name: getattr(V3, field.name) for field in dataclasses.fields(V3)}
    )
    return lambda schedule: dataclasses.replace(
        schedule, overlay=dataclasses.replace(schedule.overlay, variant=variant)
    )


#: One edit per keyed field, each of what the tick loop reads.
KEYED_EDITS = {
    "load-order swap": _swap_loads,
    "nop made a compute slot": _edit_slot(0, 3, kind=SlotKind.COMPUTE, opcode=OpCode.ADD),
    "operand": _edit_slot(0, 1, operands=(1, 2)),
    "forward flag": _edit_slot(1, 0, forward=True),
    "value id": _edit_slot(1, 5, value_id=5),
    "write-back": _edit_slot(0, 1, write_back=True),
    "constant computed": _compute_a_constant,
    "fifo depth": _with_overlay(fifo_depth=8),
    "rf depth": _with_variant(rf_depth=24),
    "load/execute overlap": _with_variant(overlap_load_execute=False),
    "alu depth": _with_variant(alu_pipeline_depth=4),
    "iwp": _with_variant(iwp=4),
    "rf frame": _with_variant_property("rf_frame_capacity", 12),
    "exec block gap": _with_variant_property("exec_block_gap", 3),
    "load block gap": _with_variant_property("load_block_gap", 2),
}


class TestContentKey:
    """The key is a digest of what the tick loop reads, and of nothing else."""

    @pytest.mark.parametrize("edit", list(KEYED_EDITS))
    def test_changing_one_keyed_field_ticks_again(self, edit, lane_timings):
        schedule = _keyed_schedule()
        edited = KEYED_EDITS[edit](schedule)
        assert fastsim._timing_digest(edited) != fastsim._timing_digest(schedule)
        FastSimulator(schedule).run(random_input_blocks(schedule.dfg, 8, seed=1))
        try:
            FastSimulator(edited).run(random_input_blocks(edited.dfg, 8, seed=1))
        except SimulationError:
            pass  # an edit may break the schedule; it still ticked its own loop
        assert lane_timings == [("FastSimulator", 8)] * 2

    def test_an_unchanged_copy_hits(self, lane_timings):
        schedule = _keyed_schedule()
        twin = _edit_slot(0, 1)(schedule)
        assert twin.stages is not schedule.stages
        blocks = random_input_blocks(schedule.dfg, 8, seed=1)
        assert _fields(FastSimulator(twin).run(blocks)) == _fields(
            FastSimulator(schedule).run(blocks)
        )
        assert lane_timings == [("FastSimulator", 8)]

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda: schedule_kernel(
                    parse_c_kernel(KEYED_SOURCE, name="renamed"),
                    LinearOverlay.fixed(V3, 2, fifo_depth=4),
                ),
                id="another-kernel",
            ),
            pytest.param(
                lambda: schedule_kernel(
                    parse_c_kernel(KEYED_SOURCE),
                    dataclasses.replace(
                        LinearOverlay.fixed(
                            dataclasses.replace(V3, name="v3b", paper_label="V3b"), 2,
                            fifo_depth=4,
                        ),
                        name="another-overlay",
                    ),
                ),
                id="another-variant-and-overlay",
            ),
        ],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_equal_content_from_other_names_ticks_once(self, make, engine, lane_timings):
        schedule = _keyed_schedule()
        other = make()
        blocks = random_input_blocks(schedule.dfg, 24, seed=5)
        FastSimulator(schedule).run(blocks)
        result = SIMULATORS[engine](other).run(blocks)
        assert lane_timings == [("FastSimulator", 24)]
        assert _fields(result) == _fields(OverlaySimulator(other).run(blocks))
        assert result.kernel_name == other.kernel_name
        assert result.overlay_name == other.overlay.name

    @pytest.mark.parametrize(
        "name,variant,strategies",
        [
            ("gradient", "v3", ("linear", "clustered")),
            ("chebyshev", "v4", ("linear", "modulo")),
            ("qspline", "v5", ("clustered", "alap")),
        ],
    )
    def test_equal_content_from_other_strategies_ticks_once(
        self, name, variant, strategies, lane_timings
    ):
        schedules = [
            schedule_with(strategy, get_kernel(name), _overlay(name, variant))
            for strategy in strategies
        ]
        blocks = random_input_blocks(schedules[0].dfg, 40, seed=7)
        for schedule in schedules:
            result = FastSimulator(schedule).run(blocks)
            assert _fields(result) == _fields(OverlaySimulator(schedule).run(blocks))
        assert lane_timings == [("FastSimulator", 40)]

    def test_v1_and_v2_lanes_of_one_length_share_an_entry(self, lane_timings):
        """V2 replicates the V1 datapath, so its 20-block lanes time like
        a 20-block V1 stream."""
        v1, v2 = _schedule("poly5", "v1"), _schedule("poly5", "v2")
        simulate_schedule(v1, num_blocks=20, engine="fast")
        result = simulate_schedule(v2, num_blocks=40, engine="batched")
        assert lane_timings == [("FastSimulator", 20)]
        blocks = random_input_blocks(v2.dfg, 40, seed=0)
        assert _fields(result) == _fields(simulate_schedule(v2, blocks, engine="cycle"))


def _overlay(name, variant):
    return OverlaySpec(variant=variant, fifo_depth=8).build_overlay(get_kernel(name))


class TestValuesStillRun:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_hit_evaluates_and_checks_the_new_stream(self, engine):
        schedule = _schedule("poly5", "v3")
        first = simulate_schedule(schedule, num_blocks=30, seed=1, engine=engine)
        second = simulate_schedule(schedule, num_blocks=30, seed=2, engine=engine)
        assert second.outputs != first.outputs
        assert second.reference_outputs != first.reference_outputs
        assert second.matches_reference is True

    @pytest.mark.parametrize("first", ENGINES)
    def test_a_swapped_sub_still_fails_the_batched_check_on_a_hit(
        self, monkeypatch, lane_timings, first
    ):
        """The timing ``batched`` hits was stored by ``first``; ``fast``
        computes from the DFG, so only ``batched`` sees the swap."""
        pytest.importorskip("numpy")
        dfg = parse_c_kernel("int k(int a, int b, int c) { return (a - b) * c + a; }")
        encode = codegen._encode_slot

        def swap_sub(slot, allocation):
            instruction = encode(slot, allocation)
            if instruction.kind is InstructionKind.EXEC and instruction.opcode is OpCode.SUB:
                return dataclasses.replace(instruction, ra=instruction.rb, rb=instruction.ra)
            return instruction

        monkeypatch.setattr(codegen, "_encode_slot", swap_sub)
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        stored = simulate_schedule(schedule, random_input_blocks(dfg, 16, seed=3), engine=first)
        assert stored.matches_reference is (first == "fast")
        hit = simulate_schedule(schedule, random_input_blocks(dfg, 16, seed=4), engine="batched")
        assert hit.matches_reference is False
        assert lane_timings == [(SIMULATORS[first].__name__, 16)]


def _kept_lengths():
    """The lane lengths the memo keeps, least recently used first."""
    return [key[1] for key in fastsim._TIMINGS._entries]


class TestLifetimeAndBound:
    @pytest.fixture
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(fastsim, "TIMING_MEMO_BLOCKS", 16)
        monkeypatch.setattr(fastsim, "TIMING_MEMO_MIN_BLOCKS", 1)

    def test_an_entry_outlives_its_schedule_and_serves_an_equal_one(self, lane_timings):
        dfg = parse_c_kernel("int k(int a, int b) { return a * b + a; }")
        overlay = LinearOverlay.for_kernel(V1, dfg)
        gc.collect()
        digests = len(fastsim._DIGESTS)
        schedule = schedule_kernel(dfg, overlay)
        first = simulate_schedule(schedule, num_blocks=8, engine="fast")
        assert len(fastsim._DIGESTS) == digests + 1
        del schedule
        gc.collect()
        # The digest died with its schedule; the timing did not.
        assert len(fastsim._DIGESTS) == digests
        assert len(fastsim._TIMINGS) == 1
        again = simulate_schedule(schedule_kernel(dfg, overlay), num_blocks=8, engine="batched")
        assert _fields(again) == _fields(first)
        assert lane_timings == [("FastSimulator", 8)]

    def test_the_least_recently_used_entries_go_first(self, small_bound, lane_timings):
        """One budget spans every schedule: a hit refreshes an entry, and
        the entry used longest ago goes first."""
        gradient, qspline = _schedule("gradient", "v1"), _schedule("qspline", "v1")
        simulate_schedule(gradient, num_blocks=6, engine="fast")
        simulate_schedule(qspline, num_blocks=5, engine="fast")
        simulate_schedule(gradient, num_blocks=6, engine="fast")  # a hit
        simulate_schedule(gradient, num_blocks=7, engine="fast")  # 18 blocks: 5 goes
        assert _kept_lengths() == [6, 7]
        assert fastsim._TIMINGS.blocks == 13
        del lane_timings[:]
        simulate_schedule(gradient, num_blocks=6, engine="fast")
        simulate_schedule(qspline, num_blocks=5, engine="fast")  # 18 blocks: 7 goes
        assert lane_timings == [("FastSimulator", 5)]
        assert _kept_lengths() == [6, 5]

    def test_each_entry_is_charged_at_least_the_minimum(self, monkeypatch, lane_timings):
        monkeypatch.setattr(fastsim, "TIMING_MEMO_BLOCKS", 24)
        monkeypatch.setattr(fastsim, "TIMING_MEMO_MIN_BLOCKS", 8)
        schedule = _schedule("gradient", "v1")
        for num_blocks in (1, 2, 3, 4):  # charged 8 each: 1 goes
            simulate_schedule(schedule, num_blocks=num_blocks, engine="fast")
        assert _kept_lengths() == [2, 3, 4]
        assert fastsim._TIMINGS.blocks == 24
        del lane_timings[:]
        for num_blocks in (2, 3, 4, 1):
            simulate_schedule(schedule, num_blocks=num_blocks, engine="fast")
        assert lane_timings == [("FastSimulator", 1)]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_lane_longer_than_the_block_bound_is_never_kept(
        self, small_bound, lane_timings, engine
    ):
        schedule = _schedule("gradient", "v1")
        simulate_schedule(schedule, num_blocks=16, engine=engine)
        for _ in range(2):
            simulate_schedule(schedule, num_blocks=17, engine=engine)
        name = SIMULATORS[engine].__name__
        assert lane_timings == [(name, 16), (name, 17), (name, 17)]
        # The long lane displaced nothing either.
        assert _kept_lengths() == [16]

    def test_clearing_forgets_every_entry(self, lane_timings):
        schedule = _schedule("gradient", "v1")
        for _ in range(2):
            simulate_schedule(schedule, num_blocks=9, engine="fast")
            clear_timing_memo()
            assert len(fastsim._TIMINGS) == 0 and fastsim._TIMINGS.blocks == 0
        assert lane_timings == [("FastSimulator", 9)] * 2


class TestLanes:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_even_v2_stream_ticks_once_per_call(self, engine, lane_timings):
        schedule = _schedule("qspline", "v2")
        simulate_schedule(schedule, num_blocks=40, engine=engine)
        assert lane_timings == [(SIMULATORS[engine].__name__, 20)]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_odd_v2_stream_ticks_once_per_lane_length(self, engine, lane_timings):
        schedule = _schedule("qspline", "v2")
        simulate_schedule(schedule, num_blocks=41, engine=engine)
        simulate_schedule(schedule, num_blocks=41, seed=5, engine=engine)
        name = SIMULATORS[engine].__name__
        assert lane_timings == [(name, 21), (name, 20)]

    @pytest.mark.parametrize("first", ENGINES)
    def test_the_other_engine_reuses_both_lane_lengths(self, first, lane_timings):
        """``fast`` deals lanes in ``FastSimulator.run`` and ``batched`` in
        its own ``run``; both look up the same two entries."""
        schedule = _schedule("qspline", "v2")
        blocks = random_input_blocks(schedule.dfg, 41, seed=3)
        order = ENGINES if first == "fast" else ENGINES[::-1]
        results = [_fields(SIMULATORS[engine](schedule).run(blocks)) for engine in order]
        assert results[1] == results[0]
        name = SIMULATORS[first].__name__
        assert lane_timings == [(name, 21), (name, 20)]


def test_threads_on_equal_schedules_read_identical_results(monkeypatch):
    """Eight threads, each on its own schedule object of equal content, with
    a bound that holds four of the seven lane lengths (10-16 blocks on V2),
    so entries are evicted while other threads look them up."""
    monkeypatch.setattr(fastsim, "TIMING_MEMO_BLOCKS", 4 * fastsim.TIMING_MEMO_MIN_BLOCKS)
    dfg = get_kernel("poly6")
    overlay = LinearOverlay.for_kernel(FU_VARIANTS["v2"], dfg, fifo_depth=2)
    schedules = [schedule_kernel(get_kernel("poly6"), overlay) for _ in range(8)]
    lengths = list(range(20, 32))
    expected = {}
    for engine in ENGINES:
        for num_blocks in lengths:
            clear_timing_memo()
            result = simulate_schedule(schedules[0], num_blocks=num_blocks, engine=engine)
            expected[engine, num_blocks] = _fields(result)

    def worker(index):
        for repeat in range(3):
            for num_blocks in lengths[index % 4:] + lengths[:index % 4]:
                for engine in ENGINES:
                    result = simulate_schedule(
                        schedules[index], num_blocks=num_blocks, engine=engine
                    )
                    assert _fields(result) == expected[engine, num_blocks]
            if index == repeat:
                clear_timing_memo()
        return index

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-update included
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(worker, range(8))) == list(range(8))
    finally:
        sys.setswitchinterval(switch_interval)
    assert len(fastsim._TIMINGS) <= 4
    assert fastsim._TIMINGS.blocks <= fastsim.TIMING_MEMO_BLOCKS
    assert fastsim._TIMINGS.blocks == sum(
        charge for charge, _ in fastsim._TIMINGS._entries.values()
    )
