"""The overlay service's JSON wire protocol.

One request is one JSON object on one line (newline-delimited JSON over a
stream transport, or a plain dict through the in-process path):

.. code-block:: json

    {"op": "compile", "version": 1, "id": 7, "tenant": "team-a",
     "params": {"kernel": "gradient",
                "overlay": {"type": "overlay", "data": {"variant": "v1"}}}}

and one response mirrors its ``id``:

.. code-block:: json

    {"ok": true, "version": 1, "id": 7, "result": {...}}
    {"ok": false, "version": 1, "id": 7,
     "error": {"code": "E_KERNEL", "message": "unknown kernel 'nope'"}}

The payload vocabulary is deliberately nothing new: spec objects travel as
the tagged envelopes of :func:`repro.specs.spec_to_wire` /
:func:`~repro.specs.spec_from_wire`, which are the existing frozen-spec
JSON round trip.  Errors carry **stable codes** (:data:`ERROR_CODES`) so
clients can dispatch on them without parsing prose; the mapping from
library exceptions to codes lives in :func:`error_code_for`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import (
    CodegenError,
    ConfigurationError,
    InfeasibleScheduleError,
    KernelError,
    ReproError,
    VerificationError,
)

#: Protocol version spoken by this server (and the only one it accepts).
PROTOCOL_VERSION = 1

#: Longest request line the stream transport reads, in bytes before the
#: newline.  A longer line is answered with one ``E_PROTOCOL`` error and the
#: connection is closed: the server has dropped part of the line, so it
#: cannot tell where the next frame starts.
MAX_REQUEST_BYTES = 1 << 20

#: Most blocks a request's ``sim`` spec may stream (an ``E_PARAMS`` error
#: past it), 256 times the 256-block requests of the benchmark's service mix.
#: The service draws every block's inputs up front, so the count bounds the
#: memory and time one request can claim.  Library callers are not bounded.
MAX_SIM_BLOCKS = 1 << 16

#: Every operation the service understands.
OPS = (
    "ping",
    "compile",
    "evaluate",
    "simulate",
    "verify",
    "schedulers",
    "models",
    "kernels",
    "stats",
)

#: Stable error codes, the client-facing failure vocabulary.
E_PROTOCOL = "E_PROTOCOL"  #: malformed request envelope
E_VERSION = "E_VERSION"  #: unsupported protocol version
E_OP = "E_OP"  #: unknown operation
E_PARAMS = "E_PARAMS"  #: missing/invalid parameters (spec validation)
E_KERNEL = "E_KERNEL"  #: unknown kernel name
E_CODEGEN = "E_CODEGEN"  #: register-file / instruction-memory overflow
E_INFEASIBLE = "E_INFEASIBLE"  #: the strategy cannot map this point
E_VERIFY = "E_VERIFY"  #: static verification failed
E_INTERNAL = "E_INTERNAL"  #: unexpected server-side failure

ERROR_CODES = (
    E_PROTOCOL,
    E_VERSION,
    E_OP,
    E_PARAMS,
    E_KERNEL,
    E_CODEGEN,
    E_INFEASIBLE,
    E_VERIFY,
    E_INTERNAL,
)


class ServiceError(ReproError):
    """A protocol-level failure with a stable error code.

    Handlers raise it (or any :class:`~repro.errors.ReproError`, which
    :func:`error_code_for` maps onto a code) and the server renders it as
    an ``ok: false`` response — a request never tears down the connection.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown service error code {code!r}")
        super().__init__(message)
        self.code = code


def error_code_for(error: BaseException) -> str:
    """The stable wire code for a library exception (most specific first)."""
    if isinstance(error, ServiceError):
        return error.code
    if isinstance(error, KernelError):
        return E_KERNEL
    if isinstance(error, VerificationError):
        return E_VERIFY
    if isinstance(error, InfeasibleScheduleError):
        return E_INFEASIBLE
    if isinstance(error, CodegenError):
        return E_CODEGEN
    if isinstance(error, ConfigurationError):
        return E_PARAMS
    if isinstance(error, ReproError):
        return E_PARAMS
    return E_INTERNAL


@dataclass(frozen=True)
class ServiceRequest:
    """One decoded, validated request envelope."""

    op: str
    params: Dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    isolated: bool = False
    id: Optional[object] = None
    version: int = PROTOCOL_VERSION


def decode_request(payload: object) -> ServiceRequest:
    """Validate a raw decoded JSON object into a :class:`ServiceRequest`.

    Raises :class:`ServiceError` with ``E_PROTOCOL`` / ``E_VERSION`` /
    ``E_OP`` — the three failure classes a request can hit before any
    handler runs.
    """
    if not isinstance(payload, dict):
        raise ServiceError(
            E_PROTOCOL, f"a request must be a JSON object, got {type(payload).__name__}"
        )
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ServiceError(E_PROTOCOL, "request 'id' must be a string or integer")
    version = payload.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            E_VERSION,
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})",
        )
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ServiceError(E_PROTOCOL, "a request needs a non-empty 'op' string")
    if op not in OPS:
        raise ServiceError(
            E_OP, f"unknown operation {op!r}; available: {', '.join(OPS)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ServiceError(E_PROTOCOL, "request 'params' must be an object")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ServiceError(E_PROTOCOL, "request 'tenant' must be a non-empty string")
    isolated = payload.get("isolated", False)
    if not isinstance(isolated, bool):
        raise ServiceError(E_PROTOCOL, "request 'isolated' must be a boolean")
    unknown = sorted(set(payload) - {"op", "params", "tenant", "isolated", "id", "version"})
    if unknown:
        raise ServiceError(
            E_PROTOCOL, f"unknown request field(s): {', '.join(map(repr, unknown))}"
        )
    return ServiceRequest(
        op=op,
        params=params,
        tenant=tenant,
        isolated=isolated,
        id=request_id,
        version=version,
    )


def ok_response(request: Optional[ServiceRequest], result: Any) -> Dict[str, Any]:
    """A success envelope mirroring the request's ``id``."""
    return {
        "ok": True,
        "version": PROTOCOL_VERSION,
        "id": request.id if request is not None else None,
        "result": result,
    }


def error_response(
    request: Optional[ServiceRequest], code: str, message: str
) -> Dict[str, Any]:
    """A failure envelope with a stable error code."""
    if code not in ERROR_CODES:
        code = E_INTERNAL
    return {
        "ok": False,
        "version": PROTOCOL_VERSION,
        "id": request.id if request is not None else None,
        "error": {"code": code, "message": message},
    }


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One newline-delimited JSON frame (the stream transport's unit)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> object:
    """Decode one frame; raises :class:`ServiceError` on malformed JSON."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: brackets nested deeper than the decoder recurses.
        raise ServiceError(E_PROTOCOL, f"malformed JSON frame: {error}")
