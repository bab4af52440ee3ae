"""Tests for the golden reference evaluator.

Besides the interpretive oracle (:func:`evaluate_dfg`), this file pins the
generated whole-stream evaluator to it: a hypothesis property over random
graphs covering every compute opcode at the 32-bit wrap edges, checked
through the reference check, the fast engine's scalar value plane and the
batched engine's numpy plane, and the contract of the per-DFG memo that
shares one compiled evaluator between them.
"""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dfg.builder import DFGBuilder
from repro.dfg.opcodes import COMPUTE_OPCODES, OpCode, _to_signed32
from repro.engine import batchsim, fastsim
from repro.errors import KernelError
from repro.kernels import get_kernel, reference
from repro.kernels.reference import (
    StreamEvaluator,
    evaluate_dfg,
    intermediate_values,
    random_input_blocks,
    reference_outputs,
    stream_evaluator,
)

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

    # The engines' datapath wraps values that reach an output unwrapped.
    passthrough = [
        index
        for index, node in enumerate(dfg.outputs())
        if dfg.node(node.operands[0]).opcode in (OpCode.INPUT, OpCode.CONST)
    ]
    engine_rows = [
        [_to_signed32(v) if i in passthrough else v for i, v in enumerate(row)]
        for row in expected
    ]
    assert fastsim._functional_outputs(dfg, blocks) == engine_rows
    if batchsim.np is not None:
        rows = batchsim.VectorBlockEvaluator(dfg).evaluate(blocks)
        assert rows is None or rows == engine_rows


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
            if batchsim.np is not None:
                assert batchsim.VectorBlockEvaluator(dfg).evaluate(blocks) == expected
            beyond = blocks + [[edge] * dfg.num_inputs for edge in EDGE_VALUES]
            assert reference_outputs(dfg, beyond) == [evaluate_dfg(dfg, b) for b in beyond]

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
    """One compiled evaluator per live DFG, shared by every caller."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        original = StreamEvaluator.__init__

        def counting(self, dfg):
            built.append(dfg.name)
            original(self, dfg)

        monkeypatch.setattr(StreamEvaluator, "__init__", counting)
        return built

    def test_repeated_calls_build_once(self, builds):
        from repro.overlay.architecture import LinearOverlay
        from repro.overlay.fu import V2
        from repro.schedule import schedule_kernel
        from repro.sim.overlay import simulate_schedule

        dfg = get_kernel("gradient")
        blocks = random_input_blocks(dfg, 9, seed=2)
        for _ in range(3):
            reference_outputs(dfg, blocks)
            fastsim._functional_outputs(dfg, blocks)
        # A verified two-lane fast run: engine lanes and reference check.
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V2, dfg))
        result = simulate_schedule(schedule, input_blocks=blocks, engine="fast", verify=True)
        assert result.matches_reference
        assert builds == ["gradient"]
        assert stream_evaluator(dfg) is stream_evaluator(dfg)

    def test_growing_dfg_rebuilds(self, builds):
        builder = DFGBuilder("grown")
        a, b = builder.input(), builder.input()
        total = builder.add(a, b)
        builder.output(total)
        dfg = builder.build()
        first = stream_evaluator(dfg)
        assert reference_outputs(dfg, [[2, 3]]) == [[5]]
        builder.output(builder.mul(total, b))
        assert reference_outputs(dfg, [[2, 3]]) == [[5, 15]]
        assert stream_evaluator(dfg) is not first
        assert builds == ["grown", "grown"]

    def test_collected_dfgs_leave_no_entry(self):
        gc.collect()
        before = len(stream_evaluator)
        refs = []
        for seed in range(50):
            dfg = get_kernel("gradient")
            reference_outputs(dfg, random_input_blocks(dfg, 2, seed=seed))
            refs.append(weakref.ref(dfg))
        del dfg
        gc.collect()
        assert all(ref() is None for ref in refs), "an evaluator keeps its DFG alive"
        assert len(stream_evaluator) <= before

    def test_eviction_needs_no_module_globals(self, monkeypatch):
        # Interpreter exit sets module globals to None; a memo that is still
        # referenced, with keys dying after that, must still evict cleanly.
        from repro.overlay.architecture import LinearOverlay
        from repro.overlay.fu import V1
        from repro.schedule import schedule_kernel

        gc.collect()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        dfg = get_kernel("gradient")
        reference_outputs(dfg, [[1] * dfg.num_inputs])
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        batchsim.plan_for(schedule)
        memos = (stream_evaluator, batchsim._PLANS)
        sizes = [len(memo) for memo in memos]
        for module in (reference, batchsim):
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
            from repro.kernels import BENCHMARK_NAMES, get_kernel
            from repro.kernels.reference import reference_outputs, stream_evaluator
            from repro.overlay.architecture import LinearOverlay
            from repro.overlay.fu import V1
            from repro.schedule import schedule_kernel

            def _keep():
                kept = []
                for name in BENCHMARK_NAMES:
                    dfg = get_kernel(name)
                    reference_outputs(dfg, [[1] * dfg.num_inputs])
                    schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
                    plan_for(schedule)
                    kept.append(schedule)
                return kept

            _KEPT = _keep()
            assert len(stream_evaluator) >= len(_KEPT) and len(PLANS) >= len(_KEPT)
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""

    def test_wrong_width_names_the_kernel(self, gradient):
        for evaluate in (reference_outputs, fastsim._functional_outputs):
            with pytest.raises(KernelError, match="'gradient' has 5 inputs, got 3 values"):
                evaluate(gradient, [[1, 2, 3, 4, 5], [1, 2, 3]])

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
