"""Spec/artifact consistency checks (family ``SPEC``).

An artifact travels with claims about itself: the resolved
:class:`~repro.specs.OverlaySpec` it was compiled for and the compile-cache
:class:`~repro.engine.cache.CacheKey` it is filed under.  This pass checks
those claims against the artifact itself, so a handle pulled from a cache
(or deserialised by a future overlay service) can be proven to be what it
says it is.  Sub-checks whose subject is absent (no spec, no key) are
silently skipped.

Codes
-----
``SPEC001``  resolved spec disagrees with the built overlay
``SPEC002``  cache key disagrees with the artifact (kernel, DFG fingerprint,
             variant, depth, fifo depth, or an unresolved scheduler name)

``SPEC003`` and ``SPEC004`` (the retired warm-up certificate checks) are
never reused.
"""

from __future__ import annotations

from functools import partial
from typing import List

from ..dfg.serialize import dfg_fingerprint
from .diagnostics import Diagnostic, pass_error

_error = partial(pass_error, "spec")


def run(ctx) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    overlay = ctx.overlay
    if ctx.spec is not None:
        out.extend(_check_spec(ctx.spec, overlay))
    if ctx.key is not None:
        out.extend(_check_key(ctx))
    return out


def _check_spec(spec, overlay) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    claims = [
        ("variant", spec.variant, overlay.variant.name),
        ("depth", spec.depth, overlay.depth),
        ("fifo_depth", spec.fifo_depth, overlay.fifo_depth),
    ]
    if spec.fixed is not None:
        claims.append(("fixed", spec.fixed, overlay.fixed_depth))
    for field, claimed, actual in claims:
        if claimed is None:
            continue  # an unresolved spec leaves sizing to the overlay
        if claimed != actual:
            out.append(
                _error(
                    "SPEC001",
                    f"spec claims {field}={claimed!r} but the overlay has "
                    f"{field}={actual!r}",
                )
            )
    return out


def _check_key(ctx) -> List[Diagnostic]:
    from ..schedule.registry import scheduler_names

    key = ctx.key
    overlay = ctx.overlay
    out: List[Diagnostic] = []
    claims = [
        ("kernel_name", key.kernel_name, ctx.dfg.name),
        ("dfg_hash", key.dfg_hash, dfg_fingerprint(ctx.dfg)),
        ("variant_name", key.variant_name, overlay.variant.name),
        ("depth", key.depth, overlay.depth),
        ("fixed_depth", key.fixed_depth, overlay.fixed_depth),
        ("fifo_depth", key.fifo_depth, overlay.fifo_depth),
    ]
    for field, claimed, actual in claims:
        if claimed != actual:
            out.append(
                _error(
                    "SPEC002",
                    f"cache key records {field}={claimed!r} but the artifact "
                    f"has {field}={actual!r}",
                )
            )
    if key.scheduler == "auto":
        out.append(
            _error(
                "SPEC002",
                "cache key carries the unresolved scheduler name 'auto' "
                "(keys must canonicalise the strategy)",
            )
        )
    elif key.scheduler not in scheduler_names():
        out.append(
            _error(
                "SPEC002",
                f"cache key names unregistered scheduler {key.scheduler!r}",
            )
        )
    return out
