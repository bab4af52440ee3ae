"""The engines' lane-timing memo.

A lane's timing depends on the schedule, the lane length, the cycle cap and
``fast_forward``, never on the values streamed, so ``FastSimulator`` keeps
each schedule object's lane timings (``fastsim._TIMINGS``) and a repeated
stream shape skips the tick loop.  This file pins what a hit must keep:

* every ``SimulationResult`` field equals an uncached run's, library-wide on
  V1-V5 at FIFO depth {2, 32} on ``fast`` and ``batched``;
* a returned result shares nothing with the memo;
* ``fast`` and ``batched``, ``fast_forward`` on and off, and a cycle cap too
  small to finish each get their own entry;
* the new stream is still evaluated and checked, so a codegen fault still
  reads ``matches_reference=False`` on a hit;
* entries die with their schedule, and a schedule holds at most
  ``TIMING_MEMO_ENTRIES`` of them, covering at most ``TIMING_MEMO_BLOCKS``
  blocks, so a longer lane is never kept;
* a multilane run ticks its loop once per distinct lane length;
* threads sharing one schedule read identical results.
"""

import dataclasses
import gc
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from repro import OverlaySpec, Toolchain
from repro.dfg.opcodes import OpCode
from repro.engine import fastsim
from repro.engine.batchsim import BatchSimulator
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import TIMING_MEMO_ENTRIES, FastSimulator, clear_timing_memo
from repro.errors import SimulationError
from repro.frontend import parse_c_kernel
from repro.kernels import BENCHMARK_NAMES
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V1
from repro.overlay.isa import InstructionKind
from repro.program import codegen
from repro.schedule import schedule_kernel
from repro.sim.overlay import SimulationResult, simulate_schedule

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
    def test_fast_and_batched_never_share_an_entry(self, lane_timings):
        schedule = _schedule("qspline", "v1")
        blocks = random_input_blocks(schedule.dfg, 24, seed=2)
        for _ in range(2):
            FastSimulator(schedule).run(blocks)
            BatchSimulator(schedule).run(blocks)
        assert lane_timings == [("FastSimulator", 24), ("BatchSimulator", 24)]

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


class TestValuesStillRun:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_hit_evaluates_and_checks_the_new_stream(self, engine):
        schedule = _schedule("poly5", "v3")
        first = simulate_schedule(schedule, num_blocks=30, seed=1, engine=engine)
        second = simulate_schedule(schedule, num_blocks=30, seed=2, engine=engine)
        assert second.outputs != first.outputs
        assert second.reference_outputs != first.reference_outputs
        assert second.matches_reference is True

    def test_a_swapped_sub_still_fails_the_batched_check_on_a_hit(
        self, monkeypatch, lane_timings
    ):
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
        for seed in (3, 4):
            blocks = random_input_blocks(dfg, 16, seed=seed)
            assert simulate_schedule(schedule, blocks, engine="batched").matches_reference is False
        assert len(lane_timings) == 1


class TestLifetimeAndBound:
    def test_entries_die_with_their_schedule(self):
        dfg = parse_c_kernel("int k(int a, int b) { return a * b + a; }")
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        entries = len(fastsim._TIMINGS)
        for engine in ENGINES:
            simulate_schedule(schedule, num_blocks=8, engine=engine)
        assert len(fastsim._TIMINGS(schedule)) == 2
        assert len(fastsim._TIMINGS) == entries + 1
        del schedule
        gc.collect()
        assert len(fastsim._TIMINGS) == entries

    def test_a_schedule_keeps_at_most_the_stated_number_of_entries(self, lane_timings):
        schedule = _schedule("gradient", "v1")
        lengths = range(1, TIMING_MEMO_ENTRIES + 4)
        for num_blocks in lengths:
            simulate_schedule(schedule, num_blocks=num_blocks, engine="fast")
        timings = fastsim._TIMINGS(schedule)
        assert len(timings) == TIMING_MEMO_ENTRIES
        # The oldest entries went first: the newest lengths still hit.
        del lane_timings[:]
        simulate_schedule(schedule, num_blocks=lengths[-1], engine="fast")
        simulate_schedule(schedule, num_blocks=1, engine="fast")
        assert lane_timings == [("FastSimulator", 1)]
        assert len(timings) == TIMING_MEMO_ENTRIES

    def test_a_schedule_keeps_at_most_the_stated_number_of_blocks(
        self, monkeypatch, lane_timings
    ):
        monkeypatch.setattr(fastsim, "TIMING_MEMO_BLOCKS", 16)
        schedule = _schedule("gradient", "v1")
        for num_blocks in (6, 5, 7):  # 18 blocks: the oldest, 6, goes
            simulate_schedule(schedule, num_blocks=num_blocks, engine="fast")
        timings = fastsim._TIMINGS(schedule)
        assert [num_blocks for _, num_blocks, _, _ in timings] == [5, 7]
        del lane_timings[:]
        for num_blocks in (7, 5, 6):
            simulate_schedule(schedule, num_blocks=num_blocks, engine="fast")
        assert lane_timings == [("FastSimulator", 6)]
        assert [num_blocks for _, num_blocks, _, _ in timings] == [7, 6]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_lane_longer_than_the_block_bound_is_never_kept(
        self, monkeypatch, lane_timings, engine
    ):
        monkeypatch.setattr(fastsim, "TIMING_MEMO_BLOCKS", 16)
        schedule = _schedule("gradient", "v1")
        simulate_schedule(schedule, num_blocks=16, engine=engine)
        for _ in range(2):
            simulate_schedule(schedule, num_blocks=17, engine=engine)
        name = SIMULATORS[engine].__name__
        assert lane_timings == [(name, 16), (name, 17), (name, 17)]
        # The long lane displaced nothing either.
        assert [num_blocks for _, num_blocks, _, _ in fastsim._TIMINGS(schedule)] == [16]


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


def test_threads_sharing_one_schedule_read_identical_results():
    schedule = _schedule("poly6", "v2", 2)
    # More lengths than a schedule keeps, so entries are evicted while
    # other threads look them up.
    lengths = list(range(20, 20 + TIMING_MEMO_ENTRIES + 4))
    expected = {}
    for engine in ENGINES:
        for num_blocks in lengths:
            clear_timing_memo()
            result = simulate_schedule(schedule, num_blocks=num_blocks, engine=engine)
            expected[engine, num_blocks] = _fields(result)

    def worker(index):
        for repeat in range(3):
            for num_blocks in lengths[index % 4:] + lengths[:index % 4]:
                for engine in ENGINES:
                    result = simulate_schedule(schedule, num_blocks=num_blocks, engine=engine)
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
    timings = fastsim._TIMINGS(schedule)
    assert len(timings) <= TIMING_MEMO_ENTRIES
    assert sum(num_blocks for _, num_blocks, _, _ in timings) <= fastsim.TIMING_MEMO_BLOCKS
