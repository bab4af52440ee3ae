"""Overlay-as-a-service: an async multi-tenant compile/simulate server.

The service wraps the library's :class:`~repro.api.Toolchain` sessions in a
newline-delimited JSON protocol (:mod:`repro.service.protocol`), runs
CPU-bound request bodies on a thread pool behind an asyncio socket server
(:mod:`repro.service.server`), and shares one coalescing compile cache
across tenants while honouring per-tenant isolation.  Two clients
ship in-repo (:mod:`repro.service.client`): a TCP client and an in-process
client with the same surface, used by the tests and load benchmark.
"""

from .client import InProcessClient, ServiceClient
from .protocol import (
    E_CODEGEN,
    E_INFEASIBLE,
    E_INTERNAL,
    E_KERNEL,
    E_OP,
    E_PARAMS,
    E_PROTOCOL,
    E_VERIFY,
    E_VERSION,
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ServiceError,
)
from .server import BackgroundServer, OverlayService
from .stats import render_stats

__all__ = [
    "BackgroundServer",
    "ERROR_CODES",
    "E_CODEGEN",
    "E_INFEASIBLE",
    "E_INTERNAL",
    "E_KERNEL",
    "E_OP",
    "E_PARAMS",
    "E_PROTOCOL",
    "E_VERIFY",
    "E_VERSION",
    "InProcessClient",
    "OPS",
    "OverlayService",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceError",
    "render_stats",
]
