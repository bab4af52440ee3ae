"""The benchmark's input generator: its kernels are correct and repeatable."""

import hashlib
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import gen
from repro.frontend.cparser import parse_c_kernel
from repro.kernels.reference import evaluate_dfg

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("seed", [1, 2])
def test_sources_lower_to_the_generator_dfg(seed):
    rng = random.Random(seed)
    for kernel in islice(gen.kernel_stream(seed), 30):
        assert 8 <= kernel.dfg.num_operations <= 32
        lowered = parse_c_kernel(kernel.source)
        blocks = gen.named_stream(rng, kernel.dfg, 8)
        assert [evaluate_dfg(lowered, block) for block in blocks] == [
            evaluate_dfg(kernel.dfg, block) for block in blocks
        ], kernel.source


def _digest(seed, count=30):
    text = "".join(kernel.source for kernel in islice(gen.kernel_stream(seed), count))
    return hashlib.sha256(text.encode()).hexdigest()


def test_one_seed_gives_identical_sources_in_any_process():
    expected = _digest(7)
    assert _digest(7) == expected
    assert _digest(8) != expected
    code = f"import sys; sys.path[:0] = [{str(HERE)!r}]; import test_gen; print(test_gen._digest(7))"
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(HERE.parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected


def test_input_streams_span_the_range_with_wrap_edges():
    blocks = gen.input_stream(random.Random(3), 4, 5000)
    values = [value for block in blocks for value in block]
    assert all(gen.INT32_MIN <= value <= gen.INT32_MAX for value in values)
    edges = sum(value in gen.WRAP_EDGES for value in values) / len(values)
    assert 0.08 < edges < 0.12
    assert min(values) == gen.INT32_MIN and max(values) == gen.INT32_MAX


def test_length_ladder_has_one_length_per_log_stratum():
    lengths = gen.length_ladder(10, 64, 16384)
    bounds = [64 * 256 ** (k / 10) for k in range(11)]
    assert [low < length < high for length, low, high in zip(lengths, bounds, bounds[1:])] == [True] * 10
