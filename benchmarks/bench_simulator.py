"""Benchmarks of the tool flow itself (mapping + simulation throughput).

Not a paper artefact, but useful to anyone adopting the library: how long a
full map-and-verify cycle takes per kernel, and how fast the cycle-accurate
simulator runs.  pytest-benchmark reports wall-clock statistics for both.

A last test gates the seeded input draw (``random_input_blocks``), which
every simulate call without an input stream runs: its bulk draw (one
``getrandbits`` call per chunk) against one ``randint`` call per value,
which returns the same stream.  Each round draws every library kernel's
stream at ``DRAW_LENGTHS`` both ways, in alternating order, each call
from a collected heap, and yields one ratio, the ``randint`` total over
the bulk total; the median is gated (``MIN_DRAW_SPEEDUP``) and recorded
as ``seeded_draw_speedup``.
"""

import gc
import random
import statistics
import time

from repro.kernels import get_kernel, kernel_names
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.schedule import schedule_kernel
from repro.sim.overlay import OverlaySimulator, simulate_schedule
from repro.program.codegen import generate_program


def test_mapping_flow_throughput(benchmark):
    """Full flow (schedule + codegen) for the largest kernel on a V3 overlay."""
    poly6 = get_kernel("poly6")
    overlay = LinearOverlay.fixed("v3", 8)

    def run():
        schedule = schedule_kernel(poly6, overlay)
        return generate_program(schedule)

    program = benchmark(run)
    assert program.total_instruction_words > 0


def test_simulator_throughput(benchmark):
    """Cycle-accurate simulation of 64 qspline blocks on the V1 overlay."""
    qspline = get_kernel("qspline")
    schedule = schedule_kernel(qspline, LinearOverlay.for_kernel("v1", qspline))
    blocks = random_input_blocks(qspline, 64, seed=11)
    simulator = OverlaySimulator(schedule)

    result = benchmark(simulator.run, blocks)
    assert result.num_blocks == 64


def test_end_to_end_map_and_verify(benchmark):
    """Map, generate code and verify gradient on V2 (the quickstart path)."""

    def run():
        gradient = get_kernel("gradient")
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel("v2", gradient))
        return simulate_schedule(schedule, num_blocks=16, seed=2)

    result = benchmark(run)
    assert result.matches_reference


#: Stream lengths of the draw gate: the service's simulate requests draw
#: 256 blocks, a long sweep point thousands.
DRAW_LENGTHS = (256, 4096)
DRAW_ROUNDS = 9
#: The draw gate: the median per-round ratio must reach this factor.  Three
#: runs alone on a shared 2-vCPU Xeon VM (Python 3.11.7) gave medians of
#: 4.17x, 4.23x and 4.28x (single rounds 3.87-5.00x), and two inside full
#: ``pytest benchmarks/bench_*.py`` runs 3.58x and 3.77x; 2.9x leaves a
#: fifth of margin below the lowest median.
MIN_DRAW_SPEEDUP = 2.9


def _randint_blocks(dfg, num_blocks, seed):
    """The default-range stream with one ``randint`` call per value."""
    rng = random.Random(seed)
    width = dfg.num_inputs
    return [[rng.randint(-64, 64) for _ in range(width)] for _ in range(num_blocks)]


def _timed_draw(draw, dfg, num_blocks, seed):
    gc.collect()
    started = time.perf_counter()
    blocks = draw(dfg, num_blocks, seed)
    return time.perf_counter() - started, blocks


def test_seeded_draw_speedup_gate(save_result, record_metric):
    dfgs = [get_kernel(name) for name in kernel_names()]
    draws = {"bulk": random_input_blocks, "randint": _randint_blocks}
    ratios = []
    for round_index in range(DRAW_ROUNDS):
        spent = dict.fromkeys(draws, 0.0)
        for position, dfg in enumerate(dfgs):
            for num_blocks in DRAW_LENGTHS:
                order = list(draws) if (position + round_index) % 2 == 0 else list(draws)[::-1]
                blocks = {}
                for way in order:
                    seconds, blocks[way] = _timed_draw(draws[way], dfg, num_blocks, round_index)
                    spent[way] += seconds
                assert blocks["bulk"] == blocks["randint"], f"{dfg.name}: the draws disagree"
        ratios.append(spent["randint"] / spent["bulk"])

    speedup = statistics.median(ratios)
    save_result(
        "seeded_draw",
        "\n".join([
            f"seeded input draw: {len(dfgs)} library kernels x {DRAW_LENGTHS} blocks, "
            f"default range, {DRAW_ROUNDS} rounds",
            "  per-round randint/bulk: " + ", ".join(f"{r:.2f}x" for r in ratios),
            f"  median speedup        : {speedup:8.2f}x (gate: >= {MIN_DRAW_SPEEDUP}x)",
        ]),
    )
    record_metric("seeded_draw_speedup", speedup)
    assert speedup >= MIN_DRAW_SPEEDUP, (
        f"the bulk draw is only {speedup:.2f}x faster than randint "
        f"(median of {DRAW_ROUNDS} rounds, gate {MIN_DRAW_SPEEDUP}x)"
    )
