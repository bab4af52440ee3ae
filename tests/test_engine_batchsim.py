"""Batched-engine contract suite (the batched-execution PR gate).

Six layers of guarantees:

* **bit-identity** — the batched engine (the fast engine's recurrence with
  the compiled image as its value plane, :mod:`repro.engine.batchsim`)
  produces results exactly equal to the cycle engine's across the whole
  kernel library on V3/V4/V5 at fifo_depth in {2, 4, 8, 32} and on the
  critical-path overlays (baseline/V1/V2), including FU stats, high-water
  marks and the measured II, with fast_forward on and off, and logs the
  same fast-forward skips as the fast engine;
* **multi-lane aggregation** — the PR 1 ``_run_multilane`` stats/high-water
  regression holds as a shared contract for *both* engines (parameterized
  over ``fast`` and ``batched``);
* **plan artifacts** — value-plane plans are memoised once per schedule
  object, shared by ``ScheduleCache.get_batch_plan`` and every batched run
  of a cache entry, and never pickled with the entry (generated code never
  hits disk);
* **shared checks** — the cycle, fast and batched engines raise the same
  ``SimulationError`` for an empty or narrow input stream and from the
  deadlock guard;
* **optional dependency** — with numpy absent (``sys.modules`` stub in a
  subprocess) the library imports, the default engine runs, and the
  batched engine runs on the scalar value plane with results equal to the
  fast engine's;
* **ride-alongs** — the service ``simulate`` op accepts
  ``SimSpec(engine="batched")`` on the wire (unknown engines are
  ``E_PARAMS``) and ``TuneSpec`` can pin the measurement engine with
  identical measured results.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from functools import lru_cache

import pytest

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import FastSimulator, clear_timing_memo
from repro.errors import ConfigurationError, SimulationError
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2, V3, V4, V5
from repro.schedule import schedule_kernel
from repro.sim.overlay import OverlaySimulator, simulate_schedule
from repro.specs import OverlaySpec, SimSpec, TuneSpec

try:
    import numpy  # noqa: F401 - availability probe only
except ImportError:
    numpy = None

needs_numpy = pytest.mark.skipif(
    numpy is None, reason="the batched engine needs the numpy [batch] extra"
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Everything the engines must agree on exactly (same list as the fast-engine
#: equivalence suite; repeated here so this file stands alone).
COMPARED_FIELDS = (
    "kernel_name",
    "overlay_name",
    "num_blocks",
    "outputs",
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "latency_cycles",
    "fu_stats",
    "fifo_high_water",
    "rf_high_water",
    "rf_per_block_high_water",
)

VARIANTS = {v.name.lower(): v for v in (BASELINE, V1, V2, V3, V4, V5)}
WRITE_BACK_VARIANTS = ("v3", "v4", "v5")
CRITICAL_PATH_VARIANTS = ("baseline", "v1", "v2")
FIFO_DEPTHS = (2, 4, 8, 32)
#: Prefix lengths the fast-forward shapes try, shortest first, for their
#: cycle-engine comparison: the first on which ``fast`` skips is compared.
SKIP_SAMPLE_LENGTHS = (16, 32, 64, 128)


@lru_cache(maxsize=None)
def _fixed_schedule(name, variant_name, fifo_depth, depth=8):
    dfg = get_kernel(name)
    overlay = LinearOverlay.fixed(VARIANTS[variant_name], depth, fifo_depth=fifo_depth)
    return schedule_kernel(dfg, overlay)


@lru_cache(maxsize=None)
def _auto_schedule(name, variant_name, fifo_depth=32):
    dfg = get_kernel(name)
    overlay = LinearOverlay.for_kernel(VARIANTS[variant_name], dfg, fifo_depth=fifo_depth)
    return schedule_kernel(dfg, overlay)


def _result_fields(result):
    data = {}
    for field in COMPARED_FIELDS:
        value = getattr(result, field)
        if field == "fu_stats":
            value = [stats.__dict__ for stats in value]
        data[field] = value
    return data


def assert_batched_identical(schedule, num_blocks, seed=3, **knobs):
    """Run the batched and the cycle engine on the same stream; assert exact
    equality.  ``knobs`` go to the batched engine: the cycle engine, the
    golden reference, has no fast-forward to turn off."""
    from repro.engine.batchsim import BatchSimulator

    blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    cycle = OverlaySimulator(schedule).run(blocks)
    batched = BatchSimulator(schedule, **knobs).run(blocks)
    assert _result_fields(batched) == _result_fields(cycle)


# ---------------------------------------------------------------------------
# bit-identity with the cycle engine
# ---------------------------------------------------------------------------
@needs_numpy
class TestLibraryBitIdentity:
    """Exact equality against the cycle engine, library-wide."""

    @pytest.mark.parametrize("fifo_depth", FIFO_DEPTHS)
    @pytest.mark.parametrize("variant_name", WRITE_BACK_VARIANTS)
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_fixed_depth_library(self, name, variant_name, fifo_depth):
        schedule = _fixed_schedule(name, variant_name, fifo_depth)
        assert_batched_identical(schedule, num_blocks=20)

    @pytest.mark.parametrize("variant_name", CRITICAL_PATH_VARIANTS)
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_critical_path_library(self, name, variant_name):
        schedule = _auto_schedule(name, variant_name)
        assert_batched_identical(schedule, num_blocks=20)

    def test_no_fast_forward(self):
        schedule = _fixed_schedule("poly6", "v3", 4)
        assert_batched_identical(schedule, num_blocks=16, fast_forward=False)

    @pytest.mark.parametrize(
        "name,variant_name",
        [("gradient", "baseline"), ("gradient", "v1"), ("qspline", "v2"), ("poly7", "v3")],
    )
    def test_no_fast_forward_on_critical_path_overlays(self, name, variant_name):
        """With the jumps off every block of every lane is evaluated:
        issued LOAD words (baseline), the dual-lane deal at an odd count
        (V2) and a deep chain (poly7) still equal the cycle engine."""
        schedule = _auto_schedule(name, variant_name)
        assert_batched_identical(schedule, num_blocks=41, fast_forward=False)

    @pytest.mark.parametrize(
        "build,args,num_blocks",
        [
            pytest.param(_fixed_schedule, ("qspline", "v4", 8), 96, id="steady"),
            pytest.param(_fixed_schedule, ("poly7", "v3", 32), 400, id="ramp"),
        ]
        + [
            pytest.param(
                _auto_schedule, (name, variant_name, fifo_depth), 200,
                id=f"{name}-{variant_name}-fifo{fifo_depth}",
            )
            for name in BENCHMARK_NAMES
            for variant_name in ("v1", "v2", "v3", "v4", "v5")
            for fifo_depth in (2, 32)
        ],
    )
    def test_fast_forward_skips_like_the_fast_engine(self, build, args, num_blocks):
        """Both engines time lanes with one recurrence: same jumps, same
        results, and the timing equals the cycle engine's.

        Two deep fixed-depth streams (one steady jump, one ramp), then every
        library kernel on its critical-path overlay.  Both engines log every
        lane's jumps.  The timing memo is cleared between the two runs, so
        each engine times its own lanes and the logs compared are two
        timings, not one memo entry read twice.  The cycle engine runs the
        shortest prefix of the stream on which ``fast`` still skips: the
        whole stream would cost seconds of tier-1 per ten shapes.
        """
        from repro.engine.batchsim import BatchSimulator

        schedule = build(*args)
        blocks = random_input_blocks(schedule.dfg, num_blocks, seed=3)
        fast = FastSimulator(schedule)
        expected = _result_fields(fast.run(blocks))
        clear_timing_memo()
        batched = BatchSimulator(schedule)
        assert _result_fields(batched.run(blocks)) == expected
        assert batched.fast_forward_events, "batched engine never fast-forwarded"
        assert fast.fast_forward_events == batched.fast_forward_events

        for length in SKIP_SAMPLE_LENGTHS + (num_blocks,):
            sample = FastSimulator(schedule)
            timed = sample.run(blocks[:length])
            if sample.fast_forward_events:
                break
        cycle = OverlaySimulator(schedule).run(blocks[:length])
        assert _result_fields(timed) == _result_fields(cycle)

    def test_long_stream_deep_backpressure(self):
        schedule = _fixed_schedule("poly7", "v4", 8)
        assert_batched_identical(schedule, num_blocks=400)

    @pytest.mark.parametrize("num_blocks", [1, 2, 3, 9])
    def test_multilane_odd_splits(self, num_blocks):
        # V2 is dual-lane: block streams deal round-robin across lanes, so
        # odd counts exercise the unequal-lane-length timing dedup.
        schedule = _auto_schedule("qspline", "v2")
        assert schedule.overlay.variant.lanes == 2
        assert_batched_identical(schedule, num_blocks=num_blocks)

    def test_engine_knob_selects_batched(self):
        schedule = _auto_schedule("gradient", "v1")
        batched = simulate_schedule(schedule, num_blocks=10, engine="batched")
        fast = simulate_schedule(schedule, num_blocks=10, engine="fast")
        assert batched.matches_reference
        assert _result_fields(batched) == _result_fields(fast)

    def test_unknown_engine_rejected(self):
        schedule = _auto_schedule("gradient", "v1")
        with pytest.raises(ConfigurationError):
            simulate_schedule(schedule, num_blocks=4, engine="warp")


# ---------------------------------------------------------------------------
# multi-lane stats aggregation: shared contract for both engines
# ---------------------------------------------------------------------------
@needs_numpy
class TestMultilaneAggregationContract:
    """The PR 1 multilane regression, parameterized over both engines:
    merged stats are per-lane sums and high-water marks are lane maxima,
    with the cycle-accurate per-lane runs as the oracle."""

    @staticmethod
    def _merged(schedule, blocks, engine):
        if engine == "fast":
            return FastSimulator(schedule).run(blocks)
        from repro.engine.batchsim import BatchSimulator

        return BatchSimulator(schedule).run(blocks)

    @pytest.mark.parametrize("engine", ["fast", "batched"])
    def test_stats_aggregate_across_lanes(self, engine):
        schedule = _auto_schedule("qspline", "v2")
        blocks = random_input_blocks(schedule.dfg, 16, seed=0)
        merged = self._merged(schedule, blocks, engine)
        lane0 = OverlaySimulator(schedule)._run_single_lane(blocks[0::2])
        lane1 = OverlaySimulator(schedule)._run_single_lane(blocks[1::2])
        for k in range(schedule.depth):
            assert (
                merged.fu_stats[k].loads_issued
                == lane0.fu_stats[k].loads_issued + lane1.fu_stats[k].loads_issued
            )
            assert (
                merged.fu_stats[k].instructions_issued
                == lane0.fu_stats[k].instructions_issued
                + lane1.fu_stats[k].instructions_issued
            )

    @pytest.mark.parametrize("engine", ["fast", "batched"])
    def test_high_water_marks_take_lane_maximum(self, engine):
        schedule = _auto_schedule("qspline", "v2")
        blocks = random_input_blocks(schedule.dfg, 9, seed=0)  # uneven lanes
        merged = self._merged(schedule, blocks, engine)
        lane0 = OverlaySimulator(schedule)._run_single_lane(blocks[0::2])
        lane1 = OverlaySimulator(schedule)._run_single_lane(blocks[1::2])
        for i in range(len(merged.fifo_high_water)):
            assert merged.fifo_high_water[i] == max(
                lane0.fifo_high_water[i], lane1.fifo_high_water[i]
            )
        for i in range(len(merged.rf_high_water)):
            assert merged.rf_high_water[i] == max(
                lane0.rf_high_water[i], lane1.rf_high_water[i]
            )


# ---------------------------------------------------------------------------
# plan artifacts: memoisation, cache attachment, pickling
# ---------------------------------------------------------------------------
@needs_numpy
class TestPlanArtifacts:
    def test_plans_are_memoised_per_schedule_object(self):
        from repro.engine.batchsim import plan_for

        a = _fixed_schedule("gradient", "v3", 8)
        b = _fixed_schedule("chebyshev", "v3", 8)
        assert plan_for(a) is plan_for(a)
        assert plan_for(a) is not plan_for(b)

    def test_cache_attaches_one_plan_per_entry(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        first = tc.cache.get_batch_plan(handle.key)
        assert first is not None
        assert tc.cache.get_batch_plan(handle.key) is first

    def test_unknown_key_yields_no_plan(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        assert ScheduleCache().get_batch_plan(handle.key) is None

    def test_entry_and_batched_runs_share_one_plan(self, monkeypatch):
        from repro.engine import batchsim

        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        plan = tc.cache.get_batch_plan(handle.key)

        def second_build(schedule):
            raise AssertionError("a batched run built a second plan")

        monkeypatch.setattr(batchsim._PLANS, "_build", second_build)
        for _ in range(2):
            result = tc.simulate(handle, SimSpec(engine="batched", num_blocks=8))
            assert result.matches_reference
        assert tc.cache.get_batch_plan(handle.key) is plan
        # Generated code never rides along: the entry still pickles whole.
        entry = tc.cache.peek(handle.key)
        revived = pickle.loads(pickle.dumps(entry))
        assert revived.configuration.to_bytes() == entry.configuration.to_bytes()
        assert revived.schedule.assignment == entry.schedule.assignment


# ---------------------------------------------------------------------------
# shared checks: one input check and one deadlock guard for every engine
# ---------------------------------------------------------------------------
class TestSharedChecks:
    def _messages(self, blocks, **knobs):
        from repro.engine.batchsim import BatchSimulator

        schedule = _auto_schedule("gradient", "v2")
        messages = set()
        for engine in (OverlaySimulator, FastSimulator, BatchSimulator):
            with pytest.raises(SimulationError) as excinfo:
                engine(schedule, **knobs).run(blocks)
            messages.add(str(excinfo.value))
        return messages

    @pytest.mark.parametrize("blocks", [[], [[1, 2, 3]]], ids=["empty", "narrow"])
    def test_bad_input_raises_the_same_error(self, blocks):
        assert len(self._messages(blocks)) == 1

    def test_deadlock_guard_raises_the_same_error(self):
        blocks = random_input_blocks(get_kernel("gradient"), 4)
        [message] = self._messages(blocks, max_cycles=3)
        assert "exceeded 3 cycles" in message


# ---------------------------------------------------------------------------
# optional dependency: the library must not need numpy
# ---------------------------------------------------------------------------
class TestNumpyAbsent:
    """With numpy stubbed out of sys.modules, imports and every engine work;
    the batched engine falls back to the scalar value plane."""

    def test_library_runs_without_numpy(self):
        script = textwrap.dedent(
            """
            import sys
            sys.modules["numpy"] = None  # import numpy -> ImportError
            sys.path.insert(0, {src!r})

            from repro import Toolchain
            from repro.engine import batchsim
            from repro.specs import OverlaySpec, SimSpec

            assert batchsim.np is None
            tc = Toolchain()
            for variant in ("v1", "v2"):
                handle = tc.compile("gradient", OverlaySpec(variant))
                result = tc.simulate(handle, SimSpec(num_blocks=6))
                assert result.matches_reference
                fast = tc.simulate(handle, SimSpec(engine="fast", num_blocks=7))
                batched = tc.simulate(handle, SimSpec(engine="batched", num_blocks=7))
                assert batched == fast, variant
                assert batched.matches_reference
            print("NUMPY-ABSENT-OK")
            """
        ).format(src=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "NUMPY-ABSENT-OK" in proc.stdout


# ---------------------------------------------------------------------------
# service ride-along: engine selection over the wire
# ---------------------------------------------------------------------------
class TestServiceEngineSelection:
    @pytest.fixture()
    def client(self):
        from repro.service.client import InProcessClient
        from repro.service.server import OverlayService

        return InProcessClient(OverlayService(capacity=64, shards=4))

    @needs_numpy
    def test_batched_row_matches_fast_row(self, client):
        fast = client.simulate(
            "gradient", OverlaySpec(variant="v3"), sim=SimSpec(engine="fast")
        )
        batched = client.simulate(
            "gradient", OverlaySpec(variant="v3"), sim=SimSpec(engine="batched")
        )
        assert batched == fast
        assert batched["matches_reference"]

    def test_unknown_engine_is_E_PARAMS(self, client):
        from repro.service.protocol import E_PARAMS, ServiceError

        with pytest.raises(ServiceError) as err:
            client.request(
                "simulate",
                {
                    "kernel": "gradient",
                    "overlay": {"variant": "v3"},
                    "sim": {"engine": "warp"},
                },
            )
        assert err.value.code == E_PARAMS


# ---------------------------------------------------------------------------
# tuner ride-along: pinning the measurement engine
# ---------------------------------------------------------------------------
@needs_numpy
class TestTuneEnginePin:
    def test_batched_measurements_match_fast(self):
        from repro.tune import tune

        def _tune(engine):
            spec = TuneSpec(
                kernel="gradient",
                variants=("v1", "v3"),
                schedulers=("clustered",),
                budget=2,
                jobs=1,
                sim=SimSpec(engine=engine, num_blocks=12),
            )
            return tune(spec, toolchain=Toolchain(cache=ScheduleCache()))

        fast, batched = _tune("fast"), _tune("batched")
        assert batched.spec.sim.engine == "batched"
        measured = [
            (
                c.overlay.variant,
                c.simulated,
                c.measured_ii,
                c.measured_cycles,
                c.measured_latency_cycles,
                c.measured_gops,
            )
            for c in batched.candidates
        ]
        assert measured == [
            (
                c.overlay.variant,
                c.simulated,
                c.measured_ii,
                c.measured_cycles,
                c.measured_latency_cycles,
                c.measured_gops,
            )
            for c in fast.candidates
        ]
        assert batched.best.overlay == fast.best.overlay
