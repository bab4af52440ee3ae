"""The benchmark kernel library.

Nine kernels are provided, matching the set the paper evaluates:

* ``gradient`` — the medical-imaging running example of Fig. 2 / Table II
  (5 inputs, 11 operations, depth 4).  Defined from its C source through the
  mini-C frontend, mirroring the paper's Fig. 2a.
* ``chebyshev`` — Chebyshev polynomial evaluation in Horner form (1/1, 7 ops,
  depth 7), also defined through the mini-C frontend.
* ``mibench``, ``qspline``, ``sgfilter`` — defined through the symbolic
  tracing frontend.
* ``poly5`` .. ``poly8`` — the INRIA polynomial-test-suite kernels,
  reconstructed with
  :func:`~repro.kernels.generators.dfg_from_traffic_profile`.

The original C sources are not published, so the kernels are reconstructions.
They are built so that **both** the structural characteristics (I/O, #ops,
depth — the left half of the paper's Table III) **and** the per-stage traffic
that determines the initiation interval on the [14]/V1/V2 overlays (the right
half of Table III) match the published values exactly.  The test suite
asserts this against :mod:`repro.kernels.characteristics`.

Kernels are built lazily and cached; :func:`get_kernel` returns a fresh copy
each call so callers can annotate/transform freely.  The mini-C kernels
additionally flow through the content-hashed frontend cache
(:mod:`repro.frontend.cache`), so their lowered DFGs are shared with any
other consumer of the same source — :data:`KERNEL_C_SOURCES`
holds the sources, and :func:`clear_kernel_cache` resets the library layer
(the compile-path benchmark uses it to measure cold compiles).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..dfg.analysis import dfg_depth
from ..dfg.graph import DFG
from ..errors import KernelError
from ..frontend.cparser import parse_c_kernel
from ..frontend.expr import trace_kernel
from .generators import dfg_from_traffic_profile


# ---------------------------------------------------------------------------
# mini-C kernels (exercising the C frontend, as in the paper's Fig. 2a)
# ---------------------------------------------------------------------------
GRADIENT_C_SOURCE = """
// Medical-imaging 'gradient' kernel (paper Fig. 2a): squared gradient
// magnitude of a 5-point stencil around the centre sample i2.
void gradient(int i0, int i1, int i2, int i3, int i4, int *o0) {
    int dx = i0 - i2;
    int dy = i1 - i2;
    int dz = i2 - i3;
    int dw = i2 - i4;
    *o0 = (dx * dx + dy * dy) + (dz * dz + dw * dw);
}
"""

CHEBYSHEV_C_SOURCE = """
// Chebyshev polynomial T5(x) = 16x^5 - 20x^3 + 5x, evaluated as a full
// Horner chain so that x is live at every stage of the overlay.
int chebyshev(int x) {
    int t1 = 16 * x;
    int t2 = t1 * x;
    int t3 = t2 - 20;
    int t4 = t3 * x;
    int t5 = t4 * x;
    int t6 = t5 + 5;
    return t6 * x;
}
"""


#: Mini-C sources of the kernels defined through the C frontend.  Compiled
#: with ``Toolchain.compile(source=...)``, they take the end-to-end compile
#: cache's source fast path: the session resolves each source to its cache
#: key once (see :mod:`repro.engine.cache`).
KERNEL_C_SOURCES: Dict[str, str] = {
    "gradient": GRADIENT_C_SOURCE,
    "chebyshev": CHEBYSHEV_C_SOURCE,
}


def _build_gradient() -> DFG:
    return parse_c_kernel(GRADIENT_C_SOURCE, name="gradient")


def _build_chebyshev() -> DFG:
    return parse_c_kernel(CHEBYSHEV_C_SOURCE, name="chebyshev")


# ---------------------------------------------------------------------------
# traced kernels
# ---------------------------------------------------------------------------
def _mibench(a, b, c):
    """MiBench-style arithmetic kernel (3 inputs, 13 ops, depth 6).

    The exact MiBench routine used by the paper is not published; this kernel
    reproduces both the DFG characteristics and the per-stage traffic that
    yields the published initiation intervals (II = 14 / 8 / 4 on the
    [14] / V1 / V2 overlays).
    """
    t1 = a * b
    t2 = b + c
    t3 = a - c
    t4 = a + b
    u1 = t1 + t2
    u2 = t3 * t4
    u3 = t2 - t3
    u4 = t4 * b
    v1 = u1 * c
    v2 = u2 + t1
    w1 = v1 - v2
    x1 = w1 * u3
    return x1 + u4


def _qspline(x0, x1, x2, x3, x4, x5, x6):
    """Quadratic-spline kernel (7 inputs, 25 ops: 21 MUL + 4 ADD, depth 8).

    Mirrors the structure of the paper's Fig. 4: a wide first level of
    products of neighbouring control points, a multiplicative reduction along
    the critical path, and a small addition tree combining the partial
    products into the output sample.
    """
    m1 = x0 * x1
    m2 = x1 * x2
    m3 = x2 * x3
    m4 = x3 * x4
    m5 = x4 * x5
    m6 = x5 * x6
    m7 = x6 * x0
    n1 = m1 * m2
    n2 = m3 * m4
    n3 = m5 * m6
    n4 = m7 * x0
    n5 = m2 * m5
    n6 = m1 * m6
    p1 = n1 * n2
    p2 = n3 * n4
    p3 = n5 * x3
    p4 = n6 * m7
    q1 = p1 * p2
    q2 = p3 * p4
    q3 = p1 + p4
    r1 = q1 + q2
    r2 = q3 + q1
    s1 = r1 * r2
    s2 = s1 + r2
    return s2 * s1


def _sgfilter(x, y):
    """Savitzky-Golay style smoothing kernel (2 inputs, 18 ops, depth 9)."""
    a1 = x * x
    a2 = x * y
    a3 = y * y
    a4 = x + y
    b1 = a1 * a2
    b2 = a3 + a4
    b3 = a2 - a3
    c1 = b1 * x
    c2 = b2 + a1
    c3 = b3 * b2
    d1 = c1 + a4
    d2 = c2 * b1
    e1 = d1 * d2
    e2 = c3 + d1
    f1 = e1 * e2
    f2 = f1 + e1
    f3 = f2 * f1
    return f3 + f2


def _build_mibench() -> DFG:
    return trace_kernel(_mibench, num_inputs=3, name="mibench")


def _build_qspline() -> DFG:
    return trace_kernel(_qspline, num_inputs=7, name="qspline")


def _build_sgfilter() -> DFG:
    return trace_kernel(_sgfilter, num_inputs=2, name="sgfilter")


# ---------------------------------------------------------------------------
# polynomial test-suite kernels (traffic-profile reconstructions)
# ---------------------------------------------------------------------------
#: (per-level op counts, per-level skip counts).  Op-count sums and level
#: counts reproduce the Table III characteristics exactly; the skip profiles
#: reproduce the Table III initiation intervals on the [14]/V1/V2 overlays.
_POLY_PROFILES: Dict[str, Tuple[List[int], List[int]]] = {
    "poly5": ([6, 6, 4, 3, 2, 2, 2, 1, 1], [2, 3, 1, 0, 0, 0, 0, 0, 0]),
    "poly6": ([8, 8, 6, 5, 4, 3, 3, 2, 2, 2, 1], [3, 4, 2, 1, 1, 0, 0, 0, 0, 0, 0]),
    "poly7": (
        [7, 8, 5, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1],
        [3, 4, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    "poly8": ([6, 7, 5, 4, 3, 2, 1, 1, 1, 1, 1], [3, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
}


def _poly_builder(name: str) -> Callable[[], DFG]:
    def build() -> DFG:
        computes, skips = _POLY_PROFILES[name]
        return dfg_from_traffic_profile(computes, skips, num_inputs=3, name=name)

    return build


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_BUILDERS: Dict[str, Callable[[], DFG]] = {
    "gradient": _build_gradient,
    "chebyshev": _build_chebyshev,
    "mibench": _build_mibench,
    "qspline": _build_qspline,
    "sgfilter": _build_sgfilter,
    "poly5": _poly_builder("poly5"),
    "poly6": _poly_builder("poly6"),
    "poly7": _poly_builder("poly7"),
    "poly8": _poly_builder("poly8"),
}

#: All kernel names, in the order used throughout the paper.
BENCHMARK_NAMES = tuple(_BUILDERS)

#: The eight kernels of the paper's Table III / Fig. 6 (everything except the
#: 'gradient' running example).
TABLE3_BENCHMARKS = tuple(n for n in BENCHMARK_NAMES if n != "gradient")

_CACHE: Dict[str, DFG] = {}


def kernel_names() -> List[str]:
    """Names of all available benchmark kernels."""
    return list(BENCHMARK_NAMES)


def clear_kernel_cache() -> None:
    """Drop the library's built-DFG cache (cold-compile benchmarking hook).

    Only the library layer is cleared; the frontend and compiled-schedule
    caches have their own ``clear`` methods
    (:func:`repro.frontend.cache.default_frontend_cache` and
    :func:`repro.engine.cache.default_cache`).
    """
    _CACHE.clear()


def get_kernel(name: str) -> DFG:
    """Return a fresh copy of a benchmark kernel DFG by name."""
    if name not in _BUILDERS:
        raise KernelError(
            f"unknown kernel {name!r}; available: {', '.join(BENCHMARK_NAMES)}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name].copy()


def all_benchmarks() -> Dict[str, DFG]:
    """Return every benchmark kernel as a name -> DFG mapping."""
    return {name: get_kernel(name) for name in BENCHMARK_NAMES}


def kernel_rows() -> List[Dict[str, object]]:
    """One row per benchmark kernel (name, I/O, op count, depth): what
    ``repro-overlay kernels`` prints and the service's ``kernels`` op returns."""
    return [
        {"name": name, "io": dfg.io_signature, "ops": dfg.num_operations, "depth": dfg_depth(dfg)}
        for name, dfg in all_benchmarks().items()
    ]
