"""Pin of what a :class:`~repro.api.Toolchain` session hands out.

One fixed script of ``Toolchain.compile`` requests runs on fresh caches, and
one sha256 covers, for every request in order:

* the outcome: a handle, or the exception class and message;
* the cache key's fields and the resolved spec;
* ``schedule_only`` and the analytic II;
* the sha256 of the configuration-image bytes;
* the index of the first earlier request whose handle holds the same
  schedule object (or -1), so cache sharing is pinned too.

The script covers library names and DFG copies on every variant with every
built-in strategy, mini-C sources (the library's two, a comment-only edit,
a name override, generated corpus kernels, a three-operand kernel), ``auto``
next to the strategy it resolves to, a kernel whose codegen overflows (with
and without ``allow_schedule_only``, cold and warm), ``check=True``, an
infeasible pairing, and two tenants sharing one sharded cache.

Cache statistics are left out on purpose: how a lookup is counted may
change, what it returns may not.  A change to the session or the cache must
leave ``PIN_SHA256`` unchanged.
"""

import hashlib

from minic_corpus import corpus

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache, ShardedScheduleCache
from repro.errors import ReproError
from repro.kernels import get_kernel, kernel_names
from repro.kernels.generators import dfg_from_level_profile
from repro.kernels.library import CHEBYSHEV_C_SOURCE, GRADIENT_C_SOURCE
from repro.schedule.ii import analytic_ii
from repro.schedule.registry import scheduler_names
from repro.specs import OverlaySpec

PIN_SHA256 = "720acef0ad92b725ad6735011222b3c786cd310265ca83f4ceb1c6ce9c5ac419"

VARIANTS = ("baseline", "v1", "v2", "v3", "v4", "v5")
STRATEGIES = ("auto", "linear", "clustered", "modulo", "alap")

#: A three-operand op: codegen refuses it, so only a schedule-only handle
#: exists for it.
MAC_SOURCE = """
void mac(int a, int b, int c, int d, int *o0) {
    int t = muladd(a, b, c);
    *o0 = t - d;
}
"""


def _fat_kernel():
    """Schedules fine, but its register pressure overflows every variant's
    register file (the kernel of ``test_engine_deep_steady_state.py``)."""
    return dfg_from_level_profile(
        [24, 20, 16, 12, 8, 4, 2, 1], num_inputs=8, name="fat"
    )


def _requests():
    """``(session name, compile args, compile kwargs)`` in script order."""
    for name in kernel_names():
        for variant in VARIANTS:
            for strategy in STRATEGIES:
                spec = OverlaySpec(variant, scheduler=strategy)
                yield "main", (name, spec), {}
                yield "main", (get_kernel(name), spec), {}
    sources = [GRADIENT_C_SOURCE, CHEBYSHEV_C_SOURCE] + corpus(17, 6)
    for source in sources:
        for variant in ("v1", "v3"):
            for allow in (False, True, False, True):  # cold, then warm
                yield "main", (), dict(
                    source=source, overlay=OverlaySpec(variant), allow_schedule_only=allow
                )
    edited = "// a comment-only edit\n" + GRADIENT_C_SOURCE
    for kwargs in (dict(source=edited), dict(source=GRADIENT_C_SOURCE, name="grad2")):
        for _ in range(2):
            yield "main", (), dict(kwargs, overlay=OverlaySpec("v1"))
    for strategy in ("auto", "clustered", "auto"):
        yield "main", ("qspline", OverlaySpec("v3", scheduler=strategy)), {}
    for variant, first in (("v3", False), ("v1", True)):
        for allow in (first, not first, first, not first):
            yield "main", (_fat_kernel(), OverlaySpec(variant)), dict(
                allow_schedule_only=allow
            )
    for allow in (False, True, False, True):
        yield "main", (), dict(
            source=MAC_SOURCE, overlay=OverlaySpec("v3"), allow_schedule_only=allow
        )
    yield "main", ("gradient", OverlaySpec("v1")), dict(check=True)
    yield "main", (), dict(source=CHEBYSHEV_C_SOURCE, overlay=OverlaySpec("v5"), check=True)
    yield "main", (_fat_kernel(), OverlaySpec("v3")), dict(
        allow_schedule_only=True, check=True
    )
    for allow in (False, True):
        yield "main", ("poly7", OverlaySpec("v3", scheduler="linear")), dict(
            allow_schedule_only=allow
        )
    for session in ("tenant-a", "tenant-b", "tenant-a"):
        yield session, ("gradient", OverlaySpec("v3")), {}
        yield session, (), dict(source=CHEBYSHEV_C_SOURCE, overlay=OverlaySpec("v1"))
        yield session, (_fat_kernel(), OverlaySpec("v3")), dict(allow_schedule_only=True)


def _describe(handle, schedules):
    """The pinned fields of one handle (``schedules`` maps id -> index)."""
    key = handle.key
    try:
        image = b"" if handle.configuration is None else handle.configuration.to_bytes()
        image_digest = hashlib.sha256(image).hexdigest()
    except Exception as error:  # noqa: BLE001 - an image that cannot serialise is pinned too
        image_digest = f"to_bytes raised {type(error).__name__}: {error}"
    return "|".join(
        str(part)
        for part in (
            "handle",
            key.kernel_name,
            key.dfg_hash,
            key.variant_name,
            key.depth,
            key.fixed_depth,
            key.fifo_depth,
            key.scheduler,
            sorted(handle.spec.to_dict().items()),
            handle.schedule_only,
            repr(analytic_ii(handle.schedule)),
            image_digest,
            schedules.get(id(handle.schedule), -1),
        )
    )


def run_script():
    """Run the script; return one pinned line per request."""
    shared = ShardedScheduleCache(capacity=64, shards=4)
    sessions = {
        "main": Toolchain(cache=ScheduleCache(capacity=4096)),
        "tenant-a": Toolchain(cache=shared),
        "tenant-b": Toolchain(cache=shared),
    }
    lines = []
    schedules = {}
    handles = []  # keeps every schedule alive, so ids stay unique
    for index, (session, args, kwargs) in enumerate(_requests()):
        try:
            handle = sessions[session].compile(*args, **kwargs)
        except ReproError as error:
            lines.append(f"{index}|{session}|{type(error).__name__}|{error}")
            continue
        lines.append(f"{index}|{session}|{_describe(handle, schedules)}")
        schedules.setdefault(id(handle.schedule), index)
        handles.append(handle)
    return lines


def test_the_script_uses_every_builtin_strategy():
    assert set(STRATEGIES) <= set(scheduler_names())


def test_session_results_match_the_pin():
    lines = run_script()
    outcomes = {}
    for line in lines:
        kind = line.split("|")[2]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # The script reaches every outcome it is meant to pin.
    assert {
        "handle",
        "CodegenError",
        "RegisterAllocationError",
        "InfeasibleScheduleError",
        "VerificationError",
    } <= set(outcomes)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == PIN_SHA256, (digest, outcomes)
