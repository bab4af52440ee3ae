"""Tests for the golden reference evaluator.

Besides the interpretive oracle (:func:`evaluate_dfg`), this file pins the
generated whole-stream evaluators to it: a hypothesis property over random
graphs covering every compute opcode at the 32-bit wrap edges, checked
through the reference check, the fast engine's scalar value plane and the
reference's numpy plane, and the contract of the memo in ``DFG.derived()``
that shares one compiled evaluator of each kind between a graph's copies
and keeps it out of every pickle.
"""

import functools
import gc
import os
import pickle
import random
import subprocess
import sys
import textwrap
import threading
import types
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dfg.builder import DFGBuilder
from repro.dfg.opcodes import COMPUTE_OPCODES
from repro.engine import batchsim, fastsim
from repro.errors import KernelError
from repro.frontend import cache as frontend_cache
from repro.kernels import get_kernel, library, reference
from repro.kernels.reference import (
    StreamEvaluator,
    VectorStreamEvaluator,
    evaluate_dfg,
    intermediate_values,
    random_input_blocks,
    reference_outputs,
    stream_evaluator,
    vector_stream_evaluator,
)

try:
    import numpy
except ImportError:
    numpy = None

#: The reference check a batched run asks for: numpy where it is exact.
vectorized_reference = functools.partial(reference_outputs, vectorized=True)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The signed 32-bit wrap edges, one step past them, and far out of range.
EDGE_VALUES = (
    -(2 ** 40),
    -(2 ** 31) - 1,
    -(2 ** 31),
    -(2 ** 31) + 1,
    -1,
    0,
    1,
    2 ** 31 - 2,
    2 ** 31 - 1,
    2 ** 31,
    2 ** 40,
)
#: Edges plus small values, so shift counts and MIN/MAX vary too.
values_strategy = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(-40, 40))
#: The same inside the signed 32-bit range, where the numpy plane applies.
in_range_values = st.one_of(
    st.sampled_from([v for v in EDGE_VALUES if -(2 ** 31) <= v < 2 ** 31]),
    st.integers(-40, 40),
)


@st.composite
def graphs(draw):
    """A random DFG using every compute opcode at least once.

    Operands are drawn from inputs, constants and earlier results; besides
    the last result and a few drawn values, one output is fed directly by
    an input and one by a constant.
    """
    builder = DFGBuilder("prop")
    values = [builder.input() for _ in range(draw(st.integers(1, 4)))]
    constants = [builder.const(v) for v in draw(st.lists(values_strategy, min_size=1, max_size=3))]
    values += constants
    opcodes = list(draw(st.permutations(COMPUTE_OPCODES)))
    opcodes += draw(st.lists(st.sampled_from(COMPUTE_OPCODES), max_size=8))
    for opcode in opcodes:
        operands = [draw(st.sampled_from(values)) for _ in range(opcode.arity)]
        values.append(builder.op(opcode, *operands))
    builder.output(values[-1])
    builder.output(values[0])
    builder.output(constants[0])
    for value in draw(st.lists(st.sampled_from(values), max_size=3)):
        builder.output(value)
    return builder.build(validate=False)


def _check_value_planes(data):
    dfg = data.draw(graphs())
    length = data.draw(st.sampled_from([1, 2, 17]))
    values = data.draw(st.sampled_from([values_strategy, in_range_values]))
    block = st.lists(values, min_size=dfg.num_inputs, max_size=dfg.num_inputs)
    blocks = data.draw(st.lists(block, min_size=length, max_size=length))

    expected = [evaluate_dfg(dfg, b) for b in blocks]
    assert reference_outputs(dfg, blocks) == expected
    assert vectorized_reference(dfg, blocks) == expected
    assert fastsim._functional_outputs(dfg, blocks) == expected
    if numpy is not None:
        rows = VectorStreamEvaluator(dfg).run(blocks)
        assert rows is None or rows == expected


class TestEvaluation:
    def test_positional_and_named_inputs_agree(self, gradient):
        positional = evaluate_dfg(gradient, [1, 2, 3, 4, 5])
        ports = {node.name.split("_N")[0]: v for node, v in zip(gradient.inputs(), [1, 2, 3, 4, 5])}
        assert evaluate_dfg(gradient, ports) == positional

    def test_wrong_arity_rejected(self, gradient):
        with pytest.raises(KernelError):
            evaluate_dfg(gradient, [1, 2, 3])

    def test_unknown_port_rejected(self, gradient):
        with pytest.raises(KernelError):
            evaluate_dfg(gradient, {"bogus": 1})

    def test_missing_port_rejected(self, gradient):
        ports = {node.name.split("_N")[0]: 1 for node in gradient.inputs()[:-1]}
        with pytest.raises(KernelError):
            evaluate_dfg(gradient, ports)

    def test_results_wrap_to_32bit(self):
        dfg = get_kernel("poly6")
        values = evaluate_dfg(dfg, [2 ** 20, 2 ** 20, 2 ** 20])
        assert all(-(2 ** 31) <= v <= 2 ** 31 - 1 for v in values)

    def test_reference_outputs_streams_blocks(self, gradient):
        blocks = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [0, 0, 0, 0, 0]]
        results = reference_outputs(gradient, blocks)
        assert len(results) == 3
        assert results[2] == [0]


class TestStreamEvaluatorDifferential:
    """The generated evaluator against the interpretive oracle."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_value_planes_match_the_oracle(self, data):
        _check_value_planes(data)

    @pytest.mark.slow
    @given(data=st.data())
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_value_planes_match_the_oracle_deep(self, data):
        _check_value_planes(data)

    def test_library_kernels_at_the_wrap_edges(self, benchmarks):
        for dfg in benchmarks.values():
            blocks = random_input_blocks(dfg, 40, seed=5, low=-(2 ** 31), high=2 ** 31 - 1)
            blocks += [[-(2 ** 31)] * dfg.num_inputs, [2 ** 31 - 1] * dfg.num_inputs]
            expected = [evaluate_dfg(dfg, b) for b in blocks]
            assert reference_outputs(dfg, blocks) == expected
            assert fastsim._functional_outputs(dfg, blocks) == expected
            if numpy is not None:
                assert VectorStreamEvaluator(dfg).run(blocks) == expected
            beyond = blocks + [[edge] * dfg.num_inputs for edge in EDGE_VALUES]
            expected = [evaluate_dfg(dfg, b) for b in beyond]
            assert reference_outputs(dfg, beyond) == expected
            assert vectorized_reference(dfg, beyond) == expected

    def test_inputs_go_through_int(self):
        builder = DFGBuilder("ints")
        a, b = builder.input(), builder.input()
        builder.output(builder.sub(a, b))
        builder.output(a)
        dfg = builder.build()
        blocks = [[2.7, True], [-3.5, 7]]
        rows = reference_outputs(dfg, blocks)
        assert rows == [evaluate_dfg(dfg, block) for block in blocks] == [[1, 2], [-10, -3]]
        assert all(type(value) is int for row in rows for value in row)

    def test_empty_stream(self, gradient):
        assert reference_outputs(gradient, []) == []
        assert stream_evaluator(gradient).run([]) == []


class TestStreamEvaluatorMemo:
    """One compiled evaluator of each kind per node set, kept in
    ``DFG.derived()`` and shared by every copy of the graph."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        original = StreamEvaluator.__init__

        def counting(self, dfg):
            built.append(dfg.name)
            original(self, dfg)

        monkeypatch.setattr(StreamEvaluator, "__init__", counting)
        return built

    @pytest.fixture
    def fresh_library(self, monkeypatch):
        """A library whose graphs no earlier test evaluated: the library's
        and the frontend's graph caches both start empty."""
        monkeypatch.setattr(library, "_CACHE", {})
        monkeypatch.setattr(frontend_cache, "_DEFAULT_CACHE", None)

    def test_every_copy_of_a_kernel_builds_once(self, builds, fresh_library):
        from repro.overlay.architecture import LinearOverlay
        from repro.overlay.fu import V1, V2
        from repro.schedule import schedule_kernel
        from repro.sim.overlay import simulate_schedule

        dfg = get_kernel("gradient")
        blocks = random_input_blocks(dfg, 9, seed=2)
        for _ in range(3):
            reference_outputs(dfg, blocks)
            fastsim._functional_outputs(dfg, blocks)
        # Verified fast runs, lanes and reference check, on two more copies,
        # as two variants' artifacts of the kernel hold them.
        for variant in (V1, V2):
            copy = get_kernel("gradient")
            schedule = schedule_kernel(copy, LinearOverlay.for_kernel(variant, copy))
            result = simulate_schedule(schedule, input_blocks=blocks, engine="fast", verify=True)
            assert result.matches_reference
            assert stream_evaluator(copy) is stream_evaluator(dfg)
        assert builds == ["gradient"]
        assert vector_stream_evaluator(get_kernel("gradient")) is vector_stream_evaluator(dfg)

    def test_growing_dfg_rebuilds(self, builds):
        builder = DFGBuilder("grown")
        a, b = builder.input(), builder.input()
        total = builder.add(a, b)
        builder.output(total)
        dfg = builder.build()
        first = stream_evaluator(dfg)
        copy = dfg.copy()
        assert reference_outputs(dfg, [[2, 3]]) == [[5]]
        builder.output(builder.mul(total, b))
        assert reference_outputs(dfg, [[2, 3]]) == [[5, 15]]
        assert stream_evaluator(dfg) is not first
        # The copy kept the old node set, and with it the old evaluator.
        assert stream_evaluator(copy) is first
        assert builds == ["grown", "grown"]

    def test_a_copy_under_another_name_builds_its_own(self, gradient, builds):
        renamed = gradient.copy(name="renamed")
        assert stream_evaluator(renamed) is not stream_evaluator(gradient)
        with pytest.raises(KernelError, match="'renamed' has 5 inputs, got 3 values"):
            reference_outputs(renamed, [[1, 2, 3]])
        with pytest.raises(KernelError, match="'gradient' has 5 inputs, got 3 values"):
            reference_outputs(gradient, [[1, 2, 3]])

    def test_evaluators_keep_no_graph_alive_and_live_as_long_as_a_copy(self):
        refs = []
        for seed in range(50):
            dfg = get_kernel("gradient")
            blocks = random_input_blocks(dfg, 2, seed=seed)
            reference_outputs(dfg, blocks)
            vectorized_reference(dfg, blocks)
            refs.append(weakref.ref(dfg))
        del dfg
        gc.collect()
        assert all(ref() is None for ref in refs), "an evaluator keeps its DFG alive"

        builder = DFGBuilder("short-lived")
        a = builder.input()
        builder.output(builder.add(a, builder.const(1)))
        dfg = builder.build()
        kept = dfg.copy()
        run = weakref.ref(stream_evaluator(dfg).run)
        del builder, dfg
        gc.collect()
        assert run() is not None, "the evaluator died with a copy still alive"
        del kept
        gc.collect()
        assert run() is None, "the evaluator outlived every copy of its graph"

    def test_pickles_leave_the_evaluators_behind(self, tmp_path):
        """Generated code never reaches a pickle: not a disk-cache entry of a
        sibling artifact, not a pickled graph.  Both rebuild on first use."""
        from repro.engine.cache import ScheduleCache
        from repro.overlay.architecture import LinearOverlay
        from repro.overlay.fu import V1

        dfg = get_kernel("qspline")
        blocks = random_input_blocks(dfg, 6, seed=1)
        expected = reference_outputs(dfg, blocks)
        vectorized_reference(dfg, blocks)
        derived = dfg.derived()
        assert derived.stream_evaluator is not None
        assert derived.vector_stream_evaluator is not None

        sibling = get_kernel("qspline")
        overlay = LinearOverlay.for_kernel(V1, sibling)
        stored = ScheduleCache(disk_dir=str(tmp_path)).get_or_compile(sibling, overlay)
        assert stored.schedule.dfg.derived() is derived
        fresh = ScheduleCache(disk_dir=str(tmp_path))
        loaded = fresh.get_or_compile(get_kernel("qspline"), overlay)
        assert fresh.stats.disk_hits == 1
        for graph in (loaded.schedule.dfg, pickle.loads(pickle.dumps(sibling))):
            assert graph.derived() is not derived
            assert graph.derived().stream_evaluator is None
            assert graph.derived().vector_stream_evaluator is None
            assert graph.derived().topological_order == derived.topological_order
            assert reference_outputs(graph, blocks) == expected
            assert vectorized_reference(graph, blocks) == expected
        # The source graph keeps its evaluators.
        assert derived.stream_evaluator is not None

    def test_eviction_needs_no_module_globals(self, monkeypatch):
        # Interpreter exit sets module globals to None; a memo that is still
        # referenced, with keys dying after that, must still evict cleanly.
        from repro.overlay.architecture import LinearOverlay
        from repro.overlay.fu import V1
        from repro.schedule import schedule_kernel
        from repro.sim.overlay import simulate_schedule

        gc.collect()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        dfg = get_kernel("gradient")
        reference_outputs(dfg, [[1] * dfg.num_inputs])
        vectorized_reference(dfg, [[1] * dfg.num_inputs])
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        batchsim.plan_for(schedule)
        simulate_schedule(schedule, num_blocks=2, engine="fast")
        memos = (batchsim._PLANS, fastsim._DIGESTS)
        sizes = [len(memo) for memo in memos]
        for module in (reference, batchsim, fastsim):
            for name in list(vars(module)):
                if not name.startswith("__"):
                    monkeypatch.setattr(module, name, None)
        del dfg, schedule
        gc.collect()
        monkeypatch.undo()
        assert unraisable == []
        assert [len(memo) for memo in memos] == [size - 1 for size in sizes]

    def test_interpreter_exit_is_silent(self):
        # Entries still alive at exit are evicted during interpreter
        # teardown, when module globals may already be gone.
        code = textwrap.dedent(
            """
            from repro.engine.batchsim import _PLANS as PLANS, plan_for
            from repro.engine.fastsim import _DIGESTS as DIGESTS
            from repro.kernels import BENCHMARK_NAMES, get_kernel
            from repro.kernels.reference import reference_outputs
            from repro.overlay.architecture import LinearOverlay
            from repro.overlay.fu import V1
            from repro.schedule import schedule_kernel
            from repro.sim.overlay import simulate_schedule

            def _keep():
                kept = []
                for name in BENCHMARK_NAMES:
                    dfg = get_kernel(name)
                    reference_outputs(dfg, [[1] * dfg.num_inputs])
                    reference_outputs(dfg, [[1] * dfg.num_inputs], vectorized=True)
                    schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
                    plan_for(schedule)
                    simulate_schedule(schedule, num_blocks=2, engine="fast")
                    kept.append(schedule)
                return kept

            _KEPT = _keep()
            for memo in (PLANS, DIGESTS):
                assert len(memo) >= len(_KEPT)
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""

    def test_wrong_width_names_the_kernel(self, gradient):
        for evaluate in (reference_outputs, vectorized_reference, fastsim._functional_outputs):
            with pytest.raises(KernelError, match="'gradient' has 5 inputs, got 3 values"):
                evaluate(gradient, [[1, 2, 3, 4, 5], [1, 2, 3]])
            with pytest.raises(KernelError, match="'gradient' has 5 inputs, got 6 values"):
                evaluate(gradient, [[1, 2, 3, 4, 5, 6]] * 4)

    def test_mapping_blocks_use_the_oracle(self, gradient, builds, monkeypatch):
        calls = []

        def spy(dfg, inputs):
            calls.append(inputs)
            return evaluate_dfg(dfg, inputs)

        monkeypatch.setattr(reference, "evaluate_dfg", spy)
        ports = {node.name.split("_N")[0]: 2 for node in gradient.inputs()}
        blocks = [[1, 2, 3, 4, 5], ports]
        assert reference_outputs(gradient, blocks) == [evaluate_dfg(gradient, b) for b in blocks]
        assert calls == blocks
        assert builds == []

    def test_concurrent_threads_get_identical_rows(self):
        # Eight threads race to build and run one fresh DFG's evaluator,
        # with thread switches forced every microsecond.
        dfg = get_kernel("qspline")
        blocks = random_input_blocks(dfg, 300, seed=4, low=-(2 ** 31), high=2 ** 31 - 1)
        expected = [evaluate_dfg(dfg, b) for b in blocks]
        barrier = threading.Barrier(8, timeout=30)
        results = []

        def worker(index):
            barrier.wait()
            if index % 2:
                results.append(reference_outputs(dfg, blocks))
            else:
                results.append(fastsim._functional_outputs(dfg, blocks))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(rows == expected for rows in results)
        assert stream_evaluator(dfg).run(blocks) == expected


class TestIntermediateValues:
    def test_every_node_gets_a_value(self, qspline):
        values = intermediate_values(qspline, [1, 2, 3, 4, 5, 6, 7])
        assert set(values) == set(qspline.node_ids())


class TestRandomBlocks:
    def test_block_shape_matches_kernel(self, qspline):
        blocks = random_input_blocks(qspline, 6, seed=3)
        assert len(blocks) == 6
        assert all(len(b) == qspline.num_inputs for b in blocks)

    def test_seed_determinism(self, gradient):
        assert random_input_blocks(gradient, 4, seed=1) == random_input_blocks(
            gradient, 4, seed=1
        )
        assert random_input_blocks(gradient, 4, seed=1) != random_input_blocks(
            gradient, 4, seed=2
        )

    def test_value_range_respected(self, gradient):
        blocks = random_input_blocks(gradient, 10, seed=0, low=-5, high=5)
        assert all(-5 <= v <= 5 for block in blocks for v in block)

    def test_negative_count_rejected(self, gradient):
        with pytest.raises(KernelError):
            random_input_blocks(gradient, -1)

    def test_one_draw_per_value_returns_what_randint_would(self, qspline):
        """Each value is ``low + rng._randbelow(span)``, which is ``randint``'s
        own draw: on 50 seeds, over the default range, the full signed
        32-bit range and a span of one, the streams are equal."""

        def by_randint(num_blocks, seed, low, high):
            rng = random.Random(seed)
            width = qspline.num_inputs
            return [[rng.randint(low, high) for _ in range(width)] for _ in range(num_blocks)]

        for seed in range(50):
            for low, high in ((-64, 64), (-(2 ** 31), 2 ** 31 - 1), (7, 7)):
                assert random_input_blocks(
                    qspline, 12, seed=seed, low=low, high=high
                ) == by_randint(12, seed, low, high)

    def test_an_empty_range_raises_like_randint(self, qspline):
        with pytest.raises(ValueError):
            random_input_blocks(qspline, 1, low=3, high=2)
        assert random_input_blocks(qspline, 0, low=3, high=2) == []

    def test_without_randbelow_every_value_comes_from_randint(self, qspline, monkeypatch):
        class RandintOnly:
            def __init__(self, seed):
                self._rng = random.Random(seed)

            def randint(self, low, high):
                return self._rng.randint(low, high)

        expected = random_input_blocks(qspline, 9, seed=4)
        monkeypatch.setattr(reference, "random", types.SimpleNamespace(Random=RandintOnly))
        assert random_input_blocks(qspline, 9, seed=4) == expected
