"""The overlay compile/simulate service: async front, thread-pool back.

:class:`OverlayService` owns one shared, LRU-bounded compile cache
(:class:`~repro.engine.cache.ScheduleCache`) and one
:class:`~repro.api.Toolchain` session per tenant.  The asyncio layer only
frames newline-delimited JSON; every request body runs on a thread pool,
because compiling and simulating are CPU-bound and the toolchain stack is
thread-safe (per-key coalescing in the cache, locked registries).

Tenancy
-------
A request names its tenant (``"tenant": "team-a"``); the first request for
a tenant creates its session.  By default every tenant compiles through the
*shared* cache — identical ``(spec, kernel)`` artifacts are immutable, so
sharing them across tenants is safe and is where the warm-path throughput
comes from.  A tenant created with ``"isolated": true`` instead gets a
private :class:`~repro.engine.cache.ScheduleCache`, reproducing exactly the
two-sessions-share-nothing semantics of ``tests/test_api_toolchain.py`` for
workloads that must not observe other tenants' compiled state (or pollute
the shared LRU).

Coalescing
----------
N concurrent identical compile requests — same tenant or different
non-isolated tenants — land on one cache key and run the mapping pipeline
**once**; the other N-1 block on the in-flight entry and fan the identical
artifact out (``stats.coalesced`` counts them).  This lives in the cache
layer, so it also covers sweeps and any other concurrent consumer.

Use :meth:`OverlayService.handle` for in-process calls (tests, benchmarks),
:meth:`OverlayService.serve_forever` for a blocking socket server (the
``repro-overlay serve`` CLI), or :class:`BackgroundServer` to run one on a
daemon thread inside a test.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Type

from ..api import CompiledHandle, Toolchain
from ..engine import fastsim
from ..engine.cache import ScheduleCache
from ..kernels.library import kernel_rows
from ..schedule.ii import analytic_ii
from ..specs import OverlaySpec, R, SimSpec, spec_from_wire
from .protocol import (
    E_PARAMS,
    E_PROTOCOL,
    MAX_REQUEST_BYTES,
    MAX_SIM_BLOCKS,
    OPS,
    PROTOCOL_VERSION,
    ServiceError,
    ServiceRequest,
    decode_line,
    decode_request,
    encode_line,
    error_code_for,
    error_response,
    ok_response,
)
from .stats import ServiceStats


@dataclass
class TenantSession:
    """One tenant's session: a Toolchain over a shared or private cache."""

    name: str
    toolchain: Toolchain
    isolated: bool
    requests: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class OverlayService:
    """A multi-tenant compile/simulate server over one shared cache.

    Non-isolated tenants go through one shared
    :class:`~repro.engine.cache.ScheduleCache`, :attr:`cache`.

    Parameters
    ----------
    capacity:
        Entry bound of the shared cache.
    max_workers:
        Thread-pool width for CPU-bound request bodies (``None`` = the
        executor's CPU-based default).
    isolated_capacity:
        Capacity of each isolated tenant's private LRU cache.
    """

    def __init__(
        self,
        *,
        capacity: int = 512,
        max_workers: Optional[int] = None,
        isolated_capacity: int = 128,
        disk_dir: Optional[str] = None,
    ):
        self.cache = ScheduleCache(capacity=capacity, disk_dir=disk_dir)
        self.isolated_capacity = isolated_capacity
        self.stats = ServiceStats()
        self._tenants: Dict[str, TenantSession] = {}
        self._tenants_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="overlay-service"
        )
        self._started_monotonic = time.monotonic()
        self._handlers: Dict[str, Callable[[ServiceRequest, TenantSession], Any]] = {
            "ping": self._op_ping,
            "compile": self._op_compile,
            "evaluate": self._op_evaluate,
            "simulate": self._op_simulate,
            "verify": self._op_verify,
            "schedulers": self._op_schedulers,
            "models": self._op_models,
            "kernels": self._op_kernels,
            "stats": self._op_stats,
        }
        assert set(self._handlers) == set(OPS)

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def tenant(self, name: str = "default", isolated: bool = False) -> TenantSession:
        """The named tenant's session, created on first use.

        A shared tenant compiles through the service cache; an isolated one
        gets a private LRU.  Re-requesting an existing tenant with the
        *other* isolation mode is a client error (``E_PARAMS``) — isolation
        is a property of the tenant, not of one request.
        """
        with self._tenants_lock:
            session = self._tenants.get(name)
            if session is None:
                cache = (
                    ScheduleCache(capacity=self.isolated_capacity)
                    if isolated
                    else self.cache
                )
                session = TenantSession(
                    name=name, toolchain=Toolchain(cache=cache), isolated=isolated
                )
                self._tenants[name] = session
            elif session.isolated != isolated:
                raise ServiceError(
                    E_PARAMS,
                    f"tenant {name!r} already exists with "
                    f"isolated={session.isolated} (isolation is fixed at "
                    "tenant creation)",
                )
            return session

    # ------------------------------------------------------------------
    # request handling (synchronous core)
    # ------------------------------------------------------------------
    def handle(self, payload: object) -> Dict[str, Any]:
        """Handle one raw request payload; always returns a response dict.

        This is the whole server minus transport: decode, resolve the
        tenant, dispatch, map exceptions to stable error codes, record
        stats.  The asyncio layer calls it on the thread pool; tests and
        benchmarks call it directly.
        """
        started = time.perf_counter()
        request: Optional[ServiceRequest] = None
        op_label = "_protocol"
        try:
            request = decode_request(payload)
            op_label = request.op
            session = self.tenant(request.tenant, request.isolated)
            with session.lock:
                session.requests += 1
            result = self._handlers[request.op](request, session)
            response = ok_response(request, result)
        except Exception as error:  # one request never kills the server
            response = error_response(request, error_code_for(error), str(error))
            if request is None and isinstance(payload, dict):
                raw_id = payload.get("id")  # echo the id even when decode failed
                if isinstance(raw_id, (str, int)):
                    response["id"] = raw_id
        self.stats.record(op_label, time.perf_counter() - started, bool(response["ok"]))
        return response

    # -- parameter helpers ---------------------------------------------
    @staticmethod
    def _spec_from(params: Dict[str, Any], field: str, kind: Type[R]) -> Optional[R]:
        """``params[field]`` as a ``kind`` spec (a wire envelope or a plain
        field dict), or None when the field is absent.  A sim spec may
        stream at most :data:`MAX_SIM_BLOCKS` blocks."""
        payload = params.get(field)
        if payload is None:
            return None
        if not isinstance(payload, dict):
            raise ServiceError(E_PARAMS, f"'{field}' must be a spec object")
        if "type" not in payload:
            spec = kind.from_dict(payload)
        else:
            wired = spec_from_wire(payload)
            if not isinstance(wired, kind):
                article = "an" if field[0] in "aeiou" else "a"
                raise ServiceError(
                    E_PARAMS,
                    f"'{field}' must be {article} {field} spec, got {payload.get('type')!r}",
                )
            spec = wired
        if isinstance(spec, SimSpec) and spec.num_blocks > MAX_SIM_BLOCKS:
            message = f"'{field}' streams {spec.num_blocks} blocks, past {MAX_SIM_BLOCKS}"
            raise ServiceError(E_PARAMS, message)
        return spec

    def _compile_from(self, params: Dict[str, Any], session: TenantSession) -> CompiledHandle:
        kernel = params.get("kernel")
        source = params.get("source")
        if kernel is not None and not isinstance(kernel, str):
            raise ServiceError(E_PARAMS, "'kernel' must be a library kernel name")
        if source is not None and not isinstance(source, str):
            raise ServiceError(E_PARAMS, "'source' must be mini-C text")
        name = params.get("name")
        if name is not None and not isinstance(name, str):
            raise ServiceError(E_PARAMS, "'name' must be a string")
        overlay = self._spec_from(params, "overlay", OverlaySpec) or OverlaySpec()
        return session.toolchain.compile(
            kernel,
            overlay,
            source=source,
            name=name,
            allow_schedule_only=bool(params.get("allow_schedule_only", False)),
            check=bool(params.get("check", False)),
        )

    @staticmethod
    def _artifact_row(handle: CompiledHandle) -> Dict[str, Any]:
        """The wire form of a compiled artifact (digest, not the bytes)."""
        row: Dict[str, Any] = {
            "kernel": handle.kernel_name,
            "overlay": handle.spec.to_dict(),
            "scheduler": handle.key.scheduler,
            "schedule_only": handle.schedule_only,
            "analytic_ii": analytic_ii(handle.schedule),
            "warmup_bound_cycles": fastsim.steady_state_warmup_bound(handle.schedule),
            "configuration": None,
            "instruction_words": None,
        }
        if handle.program is not None and handle.configuration is not None:
            image = handle.configuration.to_bytes()
            row["instruction_words"] = handle.program.total_instruction_words
            row["configuration"] = {
                "size_bytes": len(image),
                "sha256": hashlib.sha256(image).hexdigest(),
            }
        return row

    # -- operations ----------------------------------------------------
    def _op_ping(self, request: ServiceRequest, session: TenantSession) -> Dict[str, Any]:
        return {"pong": True, "version": PROTOCOL_VERSION, "tenant": session.name}

    def _op_compile(self, request: ServiceRequest, session: TenantSession) -> Dict[str, Any]:
        return self._artifact_row(self._compile_from(request.params, session))

    def _op_evaluate(self, request: ServiceRequest, session: TenantSession) -> Dict[str, Any]:
        # The sim spec is checked first, so a refused one costs no compile.
        sim = self._spec_from(request.params, "sim", SimSpec)
        handle = self._compile_from(
            {**request.params, "allow_schedule_only": True}, session
        )
        result = session.toolchain.evaluate(handle, sim=sim)
        return result.as_row()

    def _op_simulate(self, request: ServiceRequest, session: TenantSession) -> Dict[str, Any]:
        sim = self._spec_from(request.params, "sim", SimSpec) or SimSpec(engine="fast")
        handle = self._compile_from(
            {**request.params, "allow_schedule_only": True}, session
        )
        result = session.toolchain.simulate(handle, sim)
        row: Dict[str, Any] = {
            "kernel": result.kernel_name,
            "overlay_name": result.overlay_name,
            "num_blocks": result.num_blocks,
            "total_cycles": result.total_cycles,
            "measured_ii": result.measured_ii,
            "latency_cycles": result.latency_cycles,
            "matches_reference": result.matches_reference,
        }
        if bool(request.params.get("include_outputs", False)):
            row["outputs"] = result.outputs
        return row

    def _op_verify(self, request: ServiceRequest, session: TenantSession) -> Dict[str, Any]:
        handle = self._compile_from(
            {**request.params, "allow_schedule_only": True}, session
        )
        report = session.toolchain.verify(handle)
        row = report.to_dict()
        row["ok"] = report.ok  # the verdict, so clients need not scan diagnostics
        return row

    def _op_schedulers(self, request: ServiceRequest, session: TenantSession):
        from ..schedule.registry import scheduler_strategies

        return [strategy.as_row() for strategy in scheduler_strategies()]

    def _op_models(self, request: ServiceRequest, session: TenantSession):
        from ..metrics.models import model_entries

        return [entry.as_row() for entry in model_entries()]

    def _op_kernels(self, request: ServiceRequest, session: TenantSession):
        return kernel_rows()

    def _op_stats(self, request: ServiceRequest, session: TenantSession) -> Dict[str, Any]:
        with self._tenants_lock:
            sessions = list(self._tenants.values())
        tenants = {}
        for tenant in sessions:
            tenants[tenant.name] = {
                "isolated": tenant.isolated,
                "requests": tenant.requests,
                "cache": tenant.toolchain.cache_stats(),
            }
        return {
            "version": PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "endpoints": self.stats.as_dict(),
            "cache": Toolchain(cache=self.cache).cache_stats(),
            "tenants": tenants,
        }

    # ------------------------------------------------------------------
    # asyncio transport
    # ------------------------------------------------------------------
    async def handle_async(self, payload: object) -> Dict[str, Any]:
        """Run :meth:`handle` on the thread pool (the per-request unit)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self.handle, payload)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line outgrew MAX_REQUEST_BYTES
                    message = f"request line exceeds {MAX_REQUEST_BYTES} bytes"
                    writer.write(encode_line(error_response(None, E_PROTOCOL, message)))
                    self.stats.record("_protocol", 0.0, False)
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload: object = decode_line(line)
                except ServiceError as error:
                    response = error_response(None, error.code, str(error))
                    self.stats.record("_protocol", 0.0, False)
                else:
                    response = await self.handle_async(payload)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.AbstractServer:
        """Start the asyncio stream server (caller owns the loop)."""
        return await asyncio.start_server(
            self._serve_connection, host, port, limit=MAX_REQUEST_BYTES
        )

    def serve_forever(self, host: str = "127.0.0.1", port: int = 7411) -> None:
        """Blocking entry point (the ``repro-overlay serve`` CLI)."""

        async def _run() -> None:
            server = await self.start(host, port)
            addresses = ", ".join(
                f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
                for sock in server.sockets or []
            )
            print(f"overlay service listening on {addresses}", flush=True)
            async with server:
                await server.serve_forever()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        self._executor.shutdown(wait=True)


class BackgroundServer:
    """Run an :class:`OverlayService` socket server on a daemon thread.

    The in-repo client tests and the load benchmark use it to stand a real
    TCP server up inside one process::

        with BackgroundServer(OverlayService()) as server:
            client = ServiceClient("127.0.0.1", server.port)

    The server binds an ephemeral port, published as :attr:`port` once it
    is accepting connections.
    """

    def __init__(self, service: OverlayService, host: str = "127.0.0.1"):
        self.service = service
        self.host = host
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="overlay-service-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise RuntimeError("overlay service server failed to start in time")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            server = loop.run_until_complete(
                self.service.start(self.host, 0)
            )
            self._server = server
            if server.sockets:
                self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            loop.run_forever()
        except BaseException as error:  # surfaced to the constructor
            self._startup_error = error
            self._ready.set()
        finally:
            try:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
