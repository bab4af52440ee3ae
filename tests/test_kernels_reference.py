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
import re
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
from repro.dfg.opcodes import COMPUTE_OPCODES, OP_VECTOR_EXPRESSIONS, IntervalWalk, OpCode
from repro.engine import batchsim, fastsim
from repro.errors import CodegenError, InfeasibleScheduleError, KernelError, SimulationError
from repro.frontend import cache as frontend_cache
from repro.kernels import get_kernel, library, reference
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V1
from repro.program.codegen import generate_program
from repro.schedule import schedule_kernel
from repro.sim.overlay import simulate_schedule
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


#: The operations that read an operand as a signed word.
NON_RING = (OpCode.SHR, OpCode.MIN, OpCode.MAX, OpCode.ABS)


@st.composite
def graphs(draw, encodable=False):
    """A random DFG using every compute opcode at least once.

    Operands are drawn from inputs, constants and earlier results.  Every
    input feeds a SHR, MIN, MAX or ABS directly, and a few operations are
    drawn again on the same operands, commuted where the opcode commutes.
    Besides the last result and a few drawn values, one output is fed
    directly by an input and one repeats an earlier output's source.

    ``encodable`` graphs are ones codegen can encode: no three-operand
    operation, and no output fed by a constant (the scheduler refuses
    one); every result nothing reads is an output, so none is dead.
    """
    builder = DFGBuilder("prop")
    inputs = [builder.input() for _ in range(draw(st.integers(1, 4)))]
    constants = [builder.const(v) for v in draw(st.lists(values_strategy, min_size=1, max_size=3))]
    values = inputs + constants
    compute = [op for op in COMPUTE_OPCODES if op.arity < 3 or not encodable]
    opcodes = list(draw(st.permutations(compute)))
    opcodes += draw(st.lists(st.sampled_from(compute), max_size=8))
    made = []
    for opcode in opcodes:
        operands = [draw(st.sampled_from(values)) for _ in range(opcode.arity)]
        made.append((opcode, operands))
        values.append(builder.op(opcode, *operands))
    for value in inputs:
        opcode = draw(st.sampled_from(NON_RING))
        operands = [value] + [draw(st.sampled_from(values)) for _ in range(opcode.arity - 1)]
        made.append((opcode, operands))
        values.append(builder.op(opcode, *operands))
    for opcode, operands in draw(st.lists(st.sampled_from(made), min_size=1, max_size=4)):
        if opcode.is_commutative:
            operands = operands[::-1]
        made.append((opcode, operands))
        values.append(builder.op(opcode, *operands))
    read = {value for _, operands in made for value in operands}
    results = values[len(inputs) + len(constants):]
    sources = [values[-1], inputs[0]]
    if encodable:
        sources += [value for value in results if value not in read]
    else:
        sources.append(constants[0])
    sources += draw(st.lists(st.sampled_from(inputs + results), max_size=3))
    sources.append(draw(st.sampled_from(sources)))
    for value in sources:
        builder.output(value)
    return builder.build(validate=False)


def _graph_of_width(width):
    """A kernel with ``width`` inputs."""
    builder = DFGBuilder(f"width{width}")
    value = builder.const(1)
    for _ in range(width):
        value = builder.add(value, builder.input())
    builder.output(value)
    return builder.build(validate=False)


def _image_schedule(dfg):
    """``dfg`` scheduled on a V1 overlay, or ``None`` when the scheduler or
    codegen refuses it (register pressure)."""
    try:
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        generate_program(schedule)
    except (CodegenError, InfeasibleScheduleError):
        return None
    return schedule


def _check_value_planes(data):
    encodable = data.draw(st.booleans())
    dfg = data.draw(graphs(encodable=encodable))
    length = data.draw(st.sampled_from([1, 2, 17]))
    values = data.draw(st.sampled_from([values_strategy, in_range_values]))
    block = st.lists(values, min_size=dfg.num_inputs, max_size=dfg.num_inputs)
    blocks = data.draw(st.lists(block, min_size=length, max_size=length))

    expected = [evaluate_dfg(dfg, b) for b in blocks]
    assert reference_outputs(dfg, blocks) == expected
    assert vectorized_reference(dfg, blocks) == expected
    assert fastsim._functional_outputs(dfg, blocks) == expected
    in_range = all(-(2 ** 31) <= v < 2 ** 31 for b in blocks for v in b)
    if numpy is not None:
        rows = VectorStreamEvaluator(dfg).run(blocks)
        assert rows == (expected if in_range else None)
    schedule = _image_schedule(dfg) if encodable else None
    if schedule is not None:
        # The batched engine's value plane executes the image; its check
        # evaluates the DFG on numpy or on the scalar plane.
        try:
            result = simulate_schedule(schedule, input_blocks=blocks, engine="batched", verify=True)
        except SimulationError:
            # The engines' register-file check refuses a few schedules that
            # codegen encodes; the cycle engine refuses them too.
            with pytest.raises(SimulationError):
                simulate_schedule(schedule, input_blocks=blocks, engine="cycle", verify=False)
        else:
            assert result.outputs == expected
            assert result.matches_reference
        if numpy is not None:
            assert batchsim.plan_for(schedule).evaluate(blocks) == (expected if in_range else None)


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


#: Each DFG plane: its wrap statement, whether it is the scalar plane, and
#: its expression table.
DFG_PLANES = {
    "scalar": (reference._WRAP, True, reference.OP_EXPRESSIONS),
    "numpy": (reference.VECTOR_WRAP, False, OP_VECTOR_EXPRESSIONS),
}


def _count_wraps(lines, wrap):
    """How many of a plan's ``lines`` wrap one variable in place with the
    ``wrap`` statement."""
    hole = re.escape("{0}")
    pattern = re.escape(wrap).replace(hole, r"(\w+)", 1).replace(hole, r"\1")
    return sum(bool(re.fullmatch(pattern, line.strip())) for line in lines)


def _dfg_plane_counts(dfg, plane):
    """The wraps and the operations in ``dfg``'s body on ``plane``."""
    wrap, scalar, templates = DFG_PLANES[plane]
    _, _, body, _ = reference._dfg_plane(dfg, IntervalWalk(wrap, scalar=scalar), templates)
    wraps = _count_wraps(body, wrap)
    return wraps, len(body) - wraps


class TestWrapPlacement:
    """Where the value planes wrap (:class:`IntervalWalk`), and the shared
    subexpressions of the DFG planes."""

    def test_library_plans_wrap_less_than_they_compute(self, benchmarks):
        from repro.overlay.fu import FU_VARIANTS

        counts = {}
        for name, dfg in benchmarks.items():
            for plane in DFG_PLANES:
                counts[name, plane] = _dfg_plane_counts(dfg, plane)
            for variant in ("v1", "v2", "v3", "v4", "v5"):
                schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(FU_VARIANTS[variant], dfg))
                lines = batchsim.image_plan_source(schedule).splitlines()
                # Each EXEC word assigns a ``tN``, and only those are wrapped.
                wraps = _count_wraps(lines, reference.VECTOR_WRAP)
                assigned = sum(bool(re.match(r"\s*t\d+ = ", line)) for line in lines)
                counts[name, variant] = wraps, assigned - wraps
        for key, (wraps, operations) in counts.items():
            assert wraps < operations, key
        for label in (*DFG_PLANES, "v1"):
            assert sum(counts[name, label][0] for name in benchmarks), label

    def test_a_square_chain_stays_exact_on_numpy(self):
        """A chain of squares would reach ``2**(2**k)`` unwrapped: on an
        input column ``int64`` would overflow, and on a constant the
        Python int could not meet the column at all."""
        builder = DFGBuilder("squares")
        column = builder.input()
        for value in (column, builder.const(2 ** 31 - 1)):
            for opcode in (OpCode.SQR, OpCode.MUL, OpCode.SHL, OpCode.MULADD, OpCode.NEG) * 3:
                value = builder.op(opcode, *[value] * opcode.arity)
            builder.output(builder.add(value, column))
        dfg = builder.build()
        wraps, operations = _dfg_plane_counts(dfg, "numpy")
        assert 0 < wraps < operations
        blocks = [[v] for v in EDGE_VALUES if -(2 ** 31) <= v < 2 ** 31]
        expected = [evaluate_dfg(dfg, b) for b in blocks]
        if numpy is not None:
            assert VectorStreamEvaluator(dfg).run(blocks) == expected
        assert reference_outputs(dfg, blocks) == expected

    @pytest.mark.parametrize("opcode", NON_RING, ids=lambda op: op.name)
    def test_a_non_ring_op_on_a_raw_input_wraps_its_result(self, opcode):
        """The scalar plane reads a raw input as the oracle does, so an
        input outside int32 reaches SHR/MIN/MAX/ABS unwrapped, and the
        result is wrapped before it reaches the output."""
        builder = DFGBuilder("raw")
        a, b = builder.input(), builder.input()
        builder.output(builder.op(opcode, *[a, b][: opcode.arity]))
        builder.output(builder.op(OpCode.ADD, a, b))
        dfg = builder.build()
        blocks = [[-(2 ** 40), 5], [2 ** 40 + 3, -7], [2 ** 31, 2 ** 31], [-(2 ** 31) - 1, 0]]
        expected = [evaluate_dfg(dfg, b) for b in blocks]
        assert reference_outputs(dfg, blocks) == expected
        assert vectorized_reference(dfg, blocks) == expected

    def test_each_distinct_operation_is_computed_once(self):
        builder = DFGBuilder("shared")
        a, b = builder.input(), builder.input()
        two, again = builder.const(2), builder.const(2)
        left = builder.add(a, b)
        right = builder.add(b, a)  # commuted
        low = builder.op(OpCode.MIN, a, b)
        high = builder.op(OpCode.MIN, b, a)
        scaled = builder.mul(left, two)
        rescaled = builder.mul(again, right)
        difference = builder.sub(a, b)
        builder.output(builder.sub(scaled, rescaled))
        builder.output(builder.xor(low, high))
        builder.output(builder.add(difference, builder.sub(b, a)))  # SUB does not commute
        builder.output(difference)
        dfg = builder.build()
        for plane, (wrap, scalar, templates) in DFG_PLANES.items():
            walk = IntervalWalk(wrap, scalar=scalar)
            assert len(reference._dfg_plane(dfg, walk, templates)[1]) == 1, plane
            # ADD, MIN, MUL and two SUBs feed the SUB, the XOR and the ADD.
            assert _dfg_plane_counts(dfg, plane)[1] == 8, plane
        blocks = [[3, 4], [-(2 ** 31), 2 ** 31 - 1], [2 ** 40, -1]]
        expected = [evaluate_dfg(dfg, b) for b in blocks]
        assert expected[0] == [0, 0, 0, -1]
        assert reference_outputs(dfg, blocks) == expected
        assert vectorized_reference(dfg, blocks) == expected


@pytest.mark.skipif(numpy is None, reason="numpy is not installed")
class TestInt64Inputs:
    """``int64_inputs`` converts with ``np.fromiter`` after one width pass,
    with ``np.array``'s answers."""

    def convert(self, blocks, width=2):
        return reference.int64_inputs(numpy, blocks, width, "k")

    def test_a_list_stream_converts_read_only(self):
        blocks = [[1, -2], [2 ** 31 - 1, -(2 ** 31)], [2.7, True]]
        array = self.convert(blocks)
        assert array.dtype == numpy.int64 and array.shape == (3, 2)
        assert array.tolist() == numpy.array(blocks, dtype=numpy.int64).tolist()
        assert not array.flags.writeable
        assert self.convert([(1, 2), numpy.array([3, 4])]).tolist() == [[1, 2], [3, 4]]

    def test_a_ragged_block_names_its_width(self):
        with pytest.raises(KernelError, match="'k' has 2 inputs, got 3 values"):
            self.convert([[1, 2], [1, 2, 3], [1]])
        with pytest.raises(KernelError, match="'k' has 2 inputs, got 1 values"):
            self.convert([[1]] * 3)

    @pytest.mark.parametrize(
        "blocks",
        [
            [],
            [[None, 1]],
            [["x", 1]],
            [[2 ** 31, 0]],
            [[0, -(2 ** 31) - 1]],
            [[2 ** 70, 0]],
            [[[1], [2]]],  # fromiter refuses, np.array makes it 3-D
        ],
    )
    def test_what_numpy_cannot_take_exactly_is_none(self, blocks):
        assert self.convert(blocks) is None

    def test_width_zero_is_none(self):
        assert reference.int64_inputs(numpy, [[], []], 0, "k") is None


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

    @pytest.mark.parametrize("span", [1, 2, 127, 128, 129, 255, 256])
    def test_the_draw_returns_what_randbelow_would(self, span):
        """Each value is ``low`` plus one ``_randbelow(span)`` call, in turn,
        at every width and count, on both sides of the bulk draw's bound."""
        low = -(span // 2)
        shapes = [(0, 3), (1, 4096), (2, 0), (3, 1), (4, 257), (5, 13), (6, 2), (7, 585)]
        for seed, (width, num_blocks) in enumerate(shapes):
            below = random.Random(seed)._randbelow
            expected = [[low + below(span) for _ in range(width)] for _ in range(num_blocks)]
            dfg = _graph_of_width(width)
            assert random_input_blocks(dfg, num_blocks, seed, low, low + span - 1) == expected

    @pytest.mark.parametrize("span, bulk", [(255, True), (256, False)])
    def test_only_spans_below_256_draw_in_bulk(self, span, bulk, qspline, monkeypatch):
        drawn = []
        original = reference._draw_below

        def spy(*args):
            drawn.append(args[1])
            return original(*args)

        monkeypatch.setattr(reference, "_draw_below", spy)
        rng = random.Random(9)
        expected = [[rng.randint(0, span - 1) for _ in range(7)] for _ in range(40)]
        assert random_input_blocks(qspline, 40, seed=9, low=0, high=span - 1) == expected
        assert drawn == ([span] if bulk else [])

    def test_without_randbelow_every_value_comes_from_randint(self, qspline, monkeypatch):
        class RandintOnly:
            def __init__(self, seed):
                self._rng = random.Random(seed)

            def randint(self, low, high):
                return self._rng.randint(low, high)

        expected = random_input_blocks(qspline, 9, seed=4)
        monkeypatch.setattr(reference, "random", types.SimpleNamespace(Random=RandintOnly))
        assert random_input_blocks(qspline, 9, seed=4) == expected
