"""The batched engine runs the configuration image; checks run on numpy.

``engine="batched"`` computes its outputs from the instruction words and
constant sections that codegen emits for the schedule.  ``cycle`` and
``fast`` compute from the schedule and the DFG.  Every engine's
``verify=True`` check evaluates the DFG on numpy once the process has
loaded numpy, and on the scalar evaluator otherwise.  This file pins what
that changes:

* a codegen fault that swaps a SUB's registers, or points an operand at a
  register nothing wrote, reads ``matches_reference=False`` under
  ``batched`` (``fast`` computes from the DFG, so it cannot see the fault),
  and an output no word forwards is refused as on ``cycle``;
* the image plane answers, with no scalar fallback, on every feasible
  library artifact;
* an output is a 32-bit word on every engine and in the reference, also
  when an input feeds it straight through;
* on every engine the check runs on numpy exactly when numpy is loaded,
  both check planes give equal rows on every library kernel, and a process
  that runs ``fast`` alone never imports numpy;
* a verified batched call converts its stream to ``int64`` once, and the
  engine's plane and the check read that one read-only array.
"""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
import types

import pytest

from repro.dfg.opcodes import OpCode
from repro.engine import batchsim
from repro.engine.batchsim import VectorBlockEvaluator
from repro.errors import SimulationError
from repro.frontend import parse_c_kernel
from repro.kernels import BENCHMARK_NAMES, get_kernel, reference
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2, V3, V4, V5
from repro.overlay.isa import InstructionKind
from repro.program import codegen
from repro.schedule import schedule_kernel
from repro.sim.overlay import simulate_schedule

try:
    import numpy
except ImportError:
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="the image plane runs on numpy")

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ENGINES = ("cycle", "fast", "batched")

#: Values where signed 32-bit arithmetic wraps or changes sign.
WRAP_EDGES = (-(2 ** 31), -(2 ** 31) + 1, -2, -1, 0, 1, 2 ** 31 - 2, 2 ** 31 - 1)


def _schedule(dfg, variant):
    if variant.write_back:
        return schedule_kernel(dfg, LinearOverlay.fixed(variant, 8))
    return schedule_kernel(dfg, LinearOverlay.for_kernel(variant, dfg))


@needs_numpy
@pytest.mark.parametrize("variant", [BASELINE, V1, V3, V5], ids=lambda v: v.name)
def test_swapped_sub_registers_fail_the_batched_check(variant, monkeypatch):
    # Not gradient: its SUBs feed SQR, so a swapped SUB computes the same.
    dfg = parse_c_kernel("int k(int a, int b, int c) { return (a - b) * c + a; }")
    blocks = random_input_blocks(dfg, 16, seed=3)
    assert simulate_schedule(_schedule(dfg, variant), blocks, engine="batched").matches_reference

    encode = codegen._encode_slot
    swapped = []

    def swap_sub(slot, allocation):
        instruction = encode(slot, allocation)
        if instruction.kind is InstructionKind.EXEC and instruction.opcode is OpCode.SUB:
            swapped.append(instruction)
            return dataclasses.replace(instruction, ra=instruction.rb, rb=instruction.ra)
        return instruction

    monkeypatch.setattr(codegen, "_encode_slot", swap_sub)
    result = simulate_schedule(_schedule(dfg, variant), blocks, engine="batched")
    assert swapped
    assert result.matches_reference is False


@needs_numpy
def test_a_read_of_an_unwritten_register_fails_the_batched_check(monkeypatch):
    # The kernel has no constants, so V1's top register holds nothing.
    dfg = parse_c_kernel("int k(int a, int b, int c) { return (a - b) * c + a; }")
    encode = codegen._encode_slot

    def drop_sub_operand(slot, allocation):
        instruction = encode(slot, allocation)
        if instruction.kind is InstructionKind.EXEC and instruction.opcode is OpCode.SUB:
            return dataclasses.replace(instruction, rb=V1.rf_depth - 1)
        return instruction

    monkeypatch.setattr(codegen, "_encode_slot", drop_sub_operand)
    blocks = random_input_blocks(dfg, 16, seed=3)
    result = simulate_schedule(_schedule(dfg, V1), blocks, engine="batched")
    assert result.matches_reference is False


@needs_numpy
def test_an_output_no_word_forwards_is_refused_like_the_cycle_engine():
    dfg = parse_c_kernel("int k(int a, int b, int *o) { *o = a - b; return a * b; }")
    schedule = _schedule(dfg, V1)
    dropped = dfg.outputs()[0].operands[0]
    last = schedule.stages[-1]
    last.slots = [
        dataclasses.replace(slot, forward=False) if slot.value_id == dropped else slot
        for slot in last.slots
    ]
    for engine in ("cycle", "batched"):
        with pytest.raises(SimulationError, match="never reache"):
            simulate_schedule(schedule, num_blocks=4, engine=engine)


@needs_numpy
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_library_artifact_runs_on_the_image(name):
    dfg = get_kernel(name)
    blocks = random_input_blocks(dfg, 24, seed=5, low=-(2 ** 31), high=2 ** 31 - 1)
    expected = reference.reference_outputs(dfg, blocks)
    for variant in (BASELINE, V1, V2, V3, V4, V5):
        rows = VectorBlockEvaluator(_schedule(dfg, variant)).evaluate(blocks)
        assert rows == expected, variant.name


@pytest.mark.parametrize("engine", ENGINES)
def test_outputs_fed_by_wide_inputs_are_32_bit_words(engine):
    dfg = parse_c_kernel("int k(int a, int b, int *o) { *o = a; return a * b; }")
    blocks = [[2 ** 31, 5], [2 ** 32 + 3, -1], [-(2 ** 31) - 1, 0]]
    result = simulate_schedule(_schedule(dfg, V1), blocks, engine=engine)
    assert [row[0] for row in result.outputs] == [-(2 ** 31), 3, 2 ** 31 - 1]
    assert result.matches_reference is True


def test_the_probe_reads_sys_modules_without_importing(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # a blocked import
    assert reference.numpy_loaded() is False
    monkeypatch.delitem(sys.modules, "numpy")
    assert reference.numpy_loaded() is False
    assert "numpy" not in sys.modules
    monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
    assert reference.numpy_loaded() is True


@pytest.mark.parametrize("loaded", [True, False], ids=["numpy-loaded", "numpy-not-loaded"])
@pytest.mark.parametrize("engine", ENGINES)
def test_the_check_runs_on_numpy_exactly_when_it_is_loaded(engine, loaded, monkeypatch):
    calls = []
    run = reference.VectorStreamEvaluator.run

    def spy(self, blocks):
        calls.append(len(blocks))
        return run(self, blocks)

    monkeypatch.setattr(reference, "numpy_loaded", lambda: loaded)
    monkeypatch.setattr(reference.VectorStreamEvaluator, "run", spy)
    dfg = get_kernel("gradient")
    result = simulate_schedule(_schedule(dfg, V1), num_blocks=6, engine=engine)
    assert result.matches_reference
    assert calls == ([6] if loaded else [])


def _check_streams(dfg):
    """A full-range stream and one of the signed 32-bit wrap edges."""
    rng = random.Random(dfg.name)
    edges = [[rng.choice(WRAP_EDGES) for _ in range(dfg.num_inputs)] for _ in range(24)]
    return {
        "full-range": random_input_blocks(dfg, 24, seed=7, low=-(2 ** 31), high=2 ** 31 - 1),
        "wrap-edge": edges,
    }


@needs_numpy
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_both_check_planes_give_equal_rows(name, engine, monkeypatch):
    answered = []
    run = reference.VectorStreamEvaluator.run

    def spy(self, blocks):
        rows = run(self, blocks)
        answered.append(rows is not None)
        return rows

    monkeypatch.setattr(reference.VectorStreamEvaluator, "run", spy)
    dfg = get_kernel(name)
    for variant in (V1, V2):
        schedule = _schedule(dfg, variant)
        for stream_name, stream in _check_streams(dfg).items():
            checks = {}
            for loaded in (True, False):
                monkeypatch.setattr(reference, "numpy_loaded", lambda loaded=loaded: loaded)
                result = simulate_schedule(schedule, stream, engine=engine)
                assert result.matches_reference, (variant.name, stream_name, loaded)
                checks[loaded] = result.reference_outputs
            assert checks[True] == checks[False], (variant.name, stream_name)
    # The numpy plane answered every loaded check itself: no scalar fallback.
    assert answered == [True] * 4


@needs_numpy
def test_a_verified_batched_call_converts_its_stream_once(monkeypatch):
    converted = []
    int64_inputs = reference.int64_inputs

    def spy(np, blocks, width, name):
        array = int64_inputs(np, blocks, width, name)
        converted.append(array)
        return array

    checked = []
    run = reference.VectorStreamEvaluator.run

    def check_spy(self, blocks):
        checked.append(blocks)
        return run(self, blocks)

    monkeypatch.setattr(reference, "int64_inputs", spy)
    monkeypatch.setattr(batchsim, "int64_inputs", spy)
    monkeypatch.setattr(reference.VectorStreamEvaluator, "run", check_spy)
    for variant in (V1, V2):
        converted.clear()
        checked.clear()
        dfg = get_kernel("qspline")
        result = simulate_schedule(_schedule(dfg, variant), num_blocks=9, engine="batched")
        assert result.matches_reference
        assert len(converted) == 1, variant.name
        assert not converted[0].flags.writeable
        assert len(checked) == 1 and checked[0] is converted[0], variant.name


def test_fast_runs_never_import_numpy():
    script = textwrap.dedent(
        """
        import sys
        from repro import Toolchain
        from repro.kernels import get_kernel
        from repro.overlay.architecture import LinearOverlay
        from repro.overlay.fu import V2
        from repro.schedule import schedule_kernel
        from repro.sim.overlay import simulate_schedule
        from repro.specs import OverlaySpec, SimSpec

        dfg = get_kernel("qspline")
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V2, dfg))
        result = simulate_schedule(schedule, num_blocks=9, engine="fast", verify=True)
        assert result.matches_reference
        tc = Toolchain()
        handle = tc.compile("gradient", OverlaySpec("v3"))
        assert tc.simulate(handle, SimSpec(engine="fast", num_blocks=5)).matches_reference
        assert "numpy" not in sys.modules, "a fast run imported numpy"
        print("NUMPY-NOT-IMPORTED")
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert "NUMPY-NOT-IMPORTED" in completed.stdout
