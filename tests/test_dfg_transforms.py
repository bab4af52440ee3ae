"""Unit tests for repro.dfg.transforms.

``optimize`` runs in two walks and one build; the four passes it composes
stay its reference, and :class:`TestTwoWalkOptimizer` checks the two agree
node for node.
"""

import importlib.util
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from minic_corpus import corpus

from repro.dfg.builder import DFGBuilder
from repro.dfg.opcodes import COMPUTE_OPCODES, OpCode
from repro.frontend.cparser import lower_c_kernel
from repro.kernels.library import KERNEL_C_SOURCES
from repro.dfg.transforms import (
    common_subexpression_elimination,
    constant_folding,
    dead_code_elimination,
    optimize,
    strength_reduce_squares,
)
from repro.kernels.reference import evaluate_dfg


def _kernel_with_dead_code():
    b = DFGBuilder("dead")
    x = b.input("x")
    y = b.input("y")
    live = b.add(x, y)
    b.mul(x, y)  # dead: never reaches an output
    b.output(live, "out")
    return b.build(validate=False)


def _kernel_with_constants():
    b = DFGBuilder("const")
    x = b.input("x")
    c1 = b.const(3)
    c2 = b.const(4)
    folded = b.mul(c1, c2)          # 12, known at compile time
    b.output(b.add(x, folded), "out")
    return b.build()


def _kernel_with_cse():
    b = DFGBuilder("cse")
    x = b.input("x")
    y = b.input("y")
    p1 = b.mul(x, y)
    p2 = b.mul(x, y)                # identical to p1
    p3 = b.mul(y, x)                # commutatively identical to p1
    b.output(b.add(b.add(p1, p2), p3), "out")
    return b.build()


class TestDeadCodeElimination:
    def test_removes_dead_operations(self):
        dfg = _kernel_with_dead_code()
        cleaned = dead_code_elimination(dfg)
        assert cleaned.num_operations == 1
        assert dfg.num_operations == 2  # original untouched

    def test_preserves_inputs(self):
        cleaned = dead_code_elimination(_kernel_with_dead_code())
        assert cleaned.num_inputs == 2

    def test_preserves_semantics(self):
        dfg = _kernel_with_dead_code()
        cleaned = dead_code_elimination(dfg)
        assert evaluate_dfg(cleaned, [5, 7]) == evaluate_dfg(dfg, [5, 7])


class TestConstantFolding:
    def test_folds_constant_subtree(self):
        folded = constant_folding(_kernel_with_constants())
        assert folded.num_operations == 1  # only the x + 12 remains
        assert any(c.value == 12 for c in folded.constants())

    def test_preserves_semantics(self):
        dfg = _kernel_with_constants()
        folded = constant_folding(dfg)
        for x in (-3, 0, 11):
            assert evaluate_dfg(folded, [x]) == evaluate_dfg(dfg, [x])

    def test_noop_without_constant_subtrees(self, gradient):
        folded = constant_folding(gradient)
        assert folded.num_operations == gradient.num_operations


class TestCSE:
    def test_merges_identical_and_commutative_twins(self):
        dfg = _kernel_with_cse()
        merged = common_subexpression_elimination(dfg)
        muls = [n for n in merged.operations() if n.opcode is OpCode.MUL]
        assert len(muls) == 1

    def test_preserves_semantics(self):
        dfg = _kernel_with_cse()
        merged = common_subexpression_elimination(dfg)
        assert evaluate_dfg(merged, [3, 4]) == evaluate_dfg(dfg, [3, 4])

    def test_non_commutative_twins_not_merged(self):
        b = DFGBuilder("sub")
        x, y = b.input("x"), b.input("y")
        b.output(b.add(b.sub(x, y), b.sub(y, x)), "out")
        dfg = b.build()
        merged = common_subexpression_elimination(dfg)
        subs = [n for n in merged.operations() if n.opcode is OpCode.SUB]
        assert len(subs) == 2


class TestStrengthReduction:
    def test_mul_by_self_becomes_sqr(self):
        b = DFGBuilder("sq")
        x = b.input("x")
        b.output(b.mul(x, x), "out")
        reduced = strength_reduce_squares(b.build())
        assert [n.opcode for n in reduced.operations()] == [OpCode.SQR]

    def test_general_mul_untouched(self, diamond_dfg):
        reduced = strength_reduce_squares(diamond_dfg)
        assert OpCode.MUL in {n.opcode for n in reduced.operations()}

    def test_preserves_semantics(self):
        b = DFGBuilder("sq")
        x = b.input("x")
        b.output(b.mul(x, x), "out")
        dfg = b.build()
        assert evaluate_dfg(strength_reduce_squares(dfg), [-9]) == [81]


class TestOptimizePipeline:
    def test_optimize_runs_all_passes(self):
        b = DFGBuilder("mix")
        x = b.input("x")
        sq = b.mul(x, x)
        c = b.mul(b.const(2), b.const(3))
        dup1 = b.add(sq, c)
        dup2 = b.add(sq, c)
        b.mul(x, b.const(7))  # dead
        b.output(b.add(dup1, dup2), "out")
        dfg = b.build(validate=False)
        optimized = optimize(dfg)
        opcodes = [n.opcode for n in optimized.operations()]
        assert OpCode.SQR in opcodes                     # strength reduction
        assert optimized.num_operations < dfg.num_operations  # CSE + DCE + folding
        assert evaluate_dfg(optimized, [5]) == evaluate_dfg(dfg, [5])

    def test_optimize_preserves_kernel_semantics(self, benchmarks):
        dfg = benchmarks["mibench"]
        optimized = optimize(dfg)
        assert evaluate_dfg(optimized, [3, -4, 5]) == evaluate_dfg(dfg, [3, -4, 5])



# ---------------------------------------------------------------------------
# the two-walk optimizer against the four-pass composition
# ---------------------------------------------------------------------------
def _composition(raw):
    """The reference: the passes ``optimize`` used to run one by one."""
    return dead_code_elimination(
        strength_reduce_squares(common_subexpression_elimination(constant_folding(raw)))
    )


def _node_rows(dfg):
    return dfg.name, [(n.node_id, n.opcode, n.operands, n.name, n.value) for n in dfg.nodes()]


def _assert_equals_composition(raw):
    assert _node_rows(optimize(raw)) == _node_rows(_composition(raw)), raw.name


def _e2e_generator():
    """``benchmarks/e2e/gen.py``: the end-to-end benchmark's kernel stream."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "e2e", "gen.py")
    spec = importlib.util.spec_from_file_location("e2e_gen", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _hand_written():
    """Kernels with each case the walks must order exactly as the passes do."""
    kernels = []

    b = DFGBuilder("dead_duplicates")
    x, y = b.input("x"), b.input("y")
    b.add(x, y)
    b.add(y, x)  # a commuted twin of a dead operation
    b.output(b.mul(x, y), "out")
    kernels.append(b)

    b = DFGBuilder("commuted_duplicates")
    x, y = b.input("x"), b.input("y")
    b.output(b.add(b.mul(x, y), b.mul(y, x)), "out")
    b.output(b.sub(b.min(y, x), b.min(x, y)), "diff")
    kernels.append(b)

    b = DFGBuilder("dead_constant_consumer")
    x = b.input("x")
    five = b.add(b.const(2), b.const(3))
    b.mul(five, x)  # dead, but the folded 5 is placed before it
    b.output(b.sub(x, b.const(1)), "a")
    b.output(b.add(five, x), "b")
    kernels.append(b)

    b = DFGBuilder("squares")
    x = b.input("x")
    b.output(b.add(b.sqr(x), b.mul(x, x)), "out")
    b.output(b.mul(x, x), "twin")
    kernels.append(b)

    b = DFGBuilder("folded_outputs")
    x = b.input("x")
    b.output(b.add(x, b.const(1)), "o")
    b.output(b.mul(b.const(6), b.const(7)), "O_return")
    kernels.append(b)

    b = DFGBuilder("emptied_port_names")
    x = b.input("_Nx")
    b.output(b.neg(x), "_Nout")
    kernels.append(b)
    return [builder.build(validate=False) for builder in kernels]


@st.composite
def raw_graphs(draw):
    """A ``DFGBuilder`` graph with dead operations, commuted duplicates,
    constant-only subtrees feeding dead and live consumers, ``sqr(x)``
    beside ``x * x``, and outputs fed by folded constants."""
    b = DFGBuilder("prop")
    port = draw(st.sampled_from(["x", "_Nx"]))
    inputs = [b.input(f"{port}{i}") for i in range(draw(st.integers(1, 3)))]
    constants = [b.const(v) for v in draw(st.lists(st.integers(-40, 40), min_size=1, max_size=3))]
    fold = draw(st.sampled_from([OpCode.ADD, OpCode.MUL, OpCode.SUB]))
    folded = b.op(fold, constants[0], constants[-1])
    if draw(st.booleans()):
        folded = b.neg(folded)
    b.add(folded, inputs[0])  # a dead consumer of the folded subtree...
    live_use = b.mul(inputs[-1], folded)  # ...before a live one
    values = inputs + constants + [folded, live_use]
    for opcode in draw(st.lists(st.sampled_from(COMPUTE_OPCODES), min_size=1, max_size=14)):
        operands = [draw(st.sampled_from(values)) for _ in range(opcode.arity)]
        values.append(b.op(opcode, *operands))
        if opcode.is_commutative and draw(st.booleans()):
            values.append(b.op(opcode, *reversed(operands)))
    x = draw(st.sampled_from(inputs))
    values += [b.sqr(x), b.mul(x, x)]
    b.neg(draw(st.sampled_from(values)))  # dead
    b.output(values[-1], "o0")
    b.output(values[-2], "o1")
    b.output(live_use, "o2")
    b.output(folded, "O_return")
    for index, value in enumerate(draw(st.lists(st.sampled_from(values), max_size=3))):
        b.output(value, f"d{index}")
    return b.build(validate=False)


class TestTwoWalkOptimizer:
    def test_library_sources(self):
        for name, source in KERNEL_C_SOURCES.items():
            _assert_equals_composition(lower_c_kernel(source, name=name, run_optimizer=False))

    def test_minic_corpus(self):
        for source in corpus(1, 600):
            _assert_equals_composition(lower_c_kernel(source, run_optimizer=False))

    def test_benchmark_kernel_stream(self):
        stream = _e2e_generator().kernel_stream(5)
        for _ in range(300):
            kernel = next(stream)
            _assert_equals_composition(lower_c_kernel(kernel.source, run_optimizer=False))

    @pytest.mark.parametrize("raw", _hand_written(), ids=lambda dfg: dfg.name)
    def test_hand_written_kernels(self, raw):
        _assert_equals_composition(raw)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=raw_graphs())
    def test_builder_graphs(self, raw):
        _assert_equals_composition(raw)

    def test_walks_leave_the_input_untouched(self):
        raw = _hand_written()[2]
        before = _node_rows(raw)
        optimize(raw)
        assert _node_rows(raw) == before
