"""Shared fixtures and the ``slow`` marker for the test suite.

Tests marked ``@pytest.mark.slow`` (the full differential model-fidelity
grids) are skipped by default so tier-1 stays fast; opt in with
``pytest --runslow``.
"""

import pytest

from repro.dfg.builder import DFGBuilder
from repro.engine.fastsim import clear_timing_memo
from repro.kernels import all_benchmarks, get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import FU_VARIANTS


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (full kernel x variant x scheduler grids)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-grid differential tests, skipped unless --runslow is given",
    )
    # Every warning is an error here.  An unclosed file's ResourceWarning is
    # raised in a finalizer, so it reaches pytest only as an unraisable-
    # exception warning: a ResourceWarning-only filter would let it pass.
    config.addinivalue_line("filterwarnings", "error")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow full-grid test; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True)
def _fresh_timing_memo():
    """Every test times its own lanes.

    Schedules are shared between tests (``lru_cache``d helpers,
    ``default_cache()``), and the engines memoise lane timings by schedule
    content, so without this a test that patches the block recurrence or a
    plan could read a timing an earlier test computed, and test order could
    change a result.
    """
    clear_timing_memo()


@pytest.fixture
def gradient():
    """The paper's running example kernel (Fig. 2)."""
    return get_kernel("gradient")


@pytest.fixture
def qspline():
    """The paper's fixed-depth scheduling example kernel (Fig. 4)."""
    return get_kernel("qspline")


@pytest.fixture
def poly7():
    """The deepest benchmark kernel (depth 13), exercises clustering."""
    return get_kernel("poly7")


@pytest.fixture
def benchmarks():
    """All nine benchmark kernels keyed by name."""
    return all_benchmarks()


@pytest.fixture
def diamond_dfg():
    """A tiny hand-built diamond DFG: out = (a+b) * (a-b)."""
    builder = DFGBuilder("diamond")
    a = builder.input("a")
    b = builder.input("b")
    s = builder.add(a, b)
    d = builder.sub(a, b)
    builder.output(builder.mul(s, d), "out")
    return builder.build()


@pytest.fixture
def chain_dfg():
    """A pure dependency chain: out = (((a+1)*2)-3)*a."""
    builder = DFGBuilder("chain")
    a = builder.input("a")
    t1 = builder.add(a, builder.const(1))
    t2 = builder.mul(t1, builder.const(2))
    t3 = builder.sub(t2, builder.const(3))
    builder.output(builder.mul(t3, a), "out")
    return builder.build()


@pytest.fixture(params=list(FU_VARIANTS))
def any_variant(request):
    """Parametrized over every FU variant."""
    return FU_VARIANTS[request.param]


@pytest.fixture
def v1_overlay_for(gradient):
    return LinearOverlay.for_kernel("v1", gradient)


@pytest.fixture
def fixed_v3_overlay():
    return LinearOverlay.fixed("v3", 8)
