"""Golden pin of the compile pipeline's output, byte for byte.

One sha256 covers, for every compiled point, the kernel, variant, strategy,
outcome, the schedule's stage assignment and the configuration-image bytes:

* the nine library kernels x {baseline, V1-V5} x {linear, clustered,
  modulo, alap} at FIFO depth 8;
* 40 seeded :func:`~repro.kernels.generators.random_dfg` kernels on V3-V5
  with ``clustered``.  Each is deeper than the depth-8 overlay, so each
  runs the greedy refinement.

A performance change to the frontend, scheduler, codegen or image layers
must leave this digest unchanged.  A change that means to alter compiled
output updates ``GOLDEN_SHA256`` and says why.
"""

import hashlib

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.errors import InfeasibleScheduleError
from repro.kernels import get_kernel, kernel_names
from repro.kernels.generators import random_dfg
from repro.specs import OverlaySpec

GOLDEN_SHA256 = "b1c0adba5e49ca3324cc78c1f87aacbf59ee9e1a03ef711e696c91a68b3c2a0b"

LIBRARY_VARIANTS = ("baseline", "v1", "v2", "v3", "v4", "v5")
STRATEGIES = ("linear", "clustered", "modulo", "alap")
WRITE_BACK_VARIANTS = ("v3", "v4", "v5")
FIFO_DEPTH = 8
RANDOM_SEEDS = range(40)


def _points():
    for name in kernel_names():
        for variant in LIBRARY_VARIANTS:
            for strategy in STRATEGIES:
                yield name, get_kernel(name), variant, strategy
    for seed in RANDOM_SEEDS:
        dfg = random_dfg(2 + seed % 3, 28 + seed % 17, seed=seed)
        for variant in WRITE_BACK_VARIANTS:
            yield dfg.name, dfg, variant, "clustered"


def _record(toolchain, dfg, variant, strategy):
    """``(outcome, algorithm, assignment, image bytes)`` of one compile."""
    spec = OverlaySpec(variant, fifo_depth=FIFO_DEPTH, scheduler=strategy)
    try:
        handle = toolchain.compile(dfg, spec, allow_schedule_only=True)
    except InfeasibleScheduleError:
        return "infeasible", "", [], b""
    outcome = "schedule-only" if handle.schedule_only else "ok"
    image = b"" if handle.configuration is None else handle.configuration.to_bytes()
    return (
        outcome,
        handle.schedule.scheduler,
        sorted(handle.schedule.assignment.items()),
        image,
    )


def test_compiled_bytes_match_the_golden_digest():
    toolchain = Toolchain(cache=ScheduleCache(capacity=4096))
    digest = hashlib.sha256()
    outcomes = {}
    for name, dfg, variant, strategy in _points():
        outcome, algorithm, assignment, image = _record(toolchain, dfg, variant, strategy)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if name.startswith("random_"):
            # The random kernels exist to pin the refinement path.
            assert algorithm == "greedy", (name, variant, outcome)
        digest.update(
            f"{name}|{variant}|{strategy}|{outcome}|{algorithm}|{assignment}|".encode("utf-8")
        )
        digest.update(image)
        digest.update(b"\n")
    assert outcomes.get("ok", 0) > 0
    assert digest.hexdigest() == GOLDEN_SHA256, (digest.hexdigest(), outcomes)
