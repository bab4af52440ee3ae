"""Overlay-as-a-service contract suite (the service PR gate).

Four layers of guarantees:

* **protocol mechanics** — request decoding with stable error codes
  (``E_PROTOCOL``/``E_VERSION``/``E_OP``), exception-to-code mapping,
  frame encode/decode, and id echoing even for requests that fail before
  a handler runs;
* **semantic equivalence** — every service operation returns exactly what
  the underlying :class:`repro.api.Toolchain` produces: ``compile``
  digests the same configuration image, ``evaluate``/``simulate``/
  ``verify`` rows match direct calls, and the introspection endpoints
  speak the live registries;
* **tenancy** — shared tenants hit one cache of the service's capacity
  (tenant B's warm compile is tenant A's artifact), isolated tenants
  reproduce the two-sessions-share-nothing semantics of
  ``tests/test_api_toolchain.py``, and flipping a tenant's isolation mode
  after creation is refused;
* **coalescing (the acceptance test)** — K concurrent identical compile
  requests execute the mapping pipeline exactly once while all K receive
  the identical artifact;

plus the socket transport (a real asyncio server on a daemon thread, the
TCP client, malformed frames) and the ``serve``/``stats`` CLI plumbing.
"""

import hashlib
import json
import socket
import threading
import time

import pytest

from repro.api import Toolchain
from repro.engine.cache import CacheStats, ScheduleCache
from repro.engine.fastsim import steady_state_warmup_bound
from repro.errors import (
    CodegenError,
    ConfigurationError,
    InfeasibleScheduleError,
    KernelError,
    ReproError,
    VerificationError,
)
from repro.kernels import kernel_names
from repro.service import (
    BackgroundServer,
    InProcessClient,
    OverlayService,
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import (
    E_INTERNAL,
    E_KERNEL,
    E_OP,
    E_PARAMS,
    E_PROTOCOL,
    E_VERSION,
    MAX_REQUEST_BYTES,
    MAX_SIM_BLOCKS,
    OPS,
    decode_line,
    decode_request,
    encode_line,
    error_code_for,
)
from repro.specs import OverlaySpec, SimSpec, spec_to_wire

GRADIENT_SOURCE = """
void grad(int a, int b, int c, int *out) {
    *out = (b - a) + (c - b);
}
"""


@pytest.fixture()
def service():
    svc = OverlayService(capacity=64)
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    return InProcessClient(service)


# ---------------------------------------------------------------------------
# protocol mechanics
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_decode_request_minimal(self):
        request = decode_request({"op": "ping"})
        assert request.op == "ping"
        assert request.tenant == "default"
        assert request.isolated is False
        assert request.version == PROTOCOL_VERSION

    def test_decode_request_rejects_non_object(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request([1, 2, 3])
        assert excinfo.value.code == E_PROTOCOL

    def test_decode_request_rejects_bad_version(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request({"op": "ping", "version": 99})
        assert excinfo.value.code == E_VERSION

    def test_decode_request_rejects_unknown_op(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request({"op": "frobnicate"})
        assert excinfo.value.code == E_OP

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "ping", "params": "nope"},
            {"op": "ping", "tenant": ""},
            {"op": "ping", "tenant": 7},
            {"op": "ping", "isolated": "yes"},
            {"op": "ping", "id": [1]},
            {"op": "ping", "extra": True},
            {"op": ""},
            {},
        ],
    )
    def test_decode_request_rejects_malformed_envelopes(self, payload):
        with pytest.raises(ServiceError) as excinfo:
            decode_request(payload)
        assert excinfo.value.code == E_PROTOCOL

    def test_line_round_trip(self):
        frame = encode_line({"op": "ping", "id": 3})
        assert frame.endswith(b"\n")
        assert decode_line(frame) == {"op": "ping", "id": 3}

    def test_decode_line_rejects_malformed_json(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_line(b"{nope\n")
        assert excinfo.value.code == E_PROTOCOL

    def test_decode_line_maps_deep_nesting_to_a_protocol_error(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_line(b"[" * 30_000 + b"]" * 30_000 + b"\n")
        assert excinfo.value.code == E_PROTOCOL

    def test_service_error_requires_known_code(self):
        with pytest.raises(ValueError):
            ServiceError("E_BOGUS", "nope")

    def test_error_code_mapping_is_most_specific_first(self):
        assert error_code_for(KernelError("k")) == E_KERNEL
        assert error_code_for(VerificationError("v")) == "E_VERIFY"
        assert error_code_for(InfeasibleScheduleError("i")) == "E_INFEASIBLE"
        assert error_code_for(CodegenError("c")) == "E_CODEGEN"
        assert error_code_for(ConfigurationError("p")) == E_PARAMS
        assert error_code_for(ReproError("r")) == E_PARAMS
        assert error_code_for(RuntimeError("x")) == E_INTERNAL
        assert error_code_for(ServiceError(E_OP, "o")) == E_OP


# ---------------------------------------------------------------------------
# in-process semantics: the service is the Toolchain, framed
# ---------------------------------------------------------------------------
class TestServiceOperations:
    def test_ping(self, client):
        result = client.ping()
        assert result == {
            "pong": True,
            "version": PROTOCOL_VERSION,
            "tenant": "default",
        }

    def test_compile_digests_the_direct_toolchain_artifact(self, client):
        spec = OverlaySpec(variant="v3")
        row = client.compile("gradient", spec)
        handle = Toolchain(cache=ScheduleCache(capacity=4)).compile("gradient", spec)
        image = handle.configuration.to_bytes()
        assert row["kernel"] == "gradient"
        assert row["overlay"] == handle.spec.to_dict()  # the resolved spec
        assert row["configuration"]["size_bytes"] == len(image)
        assert row["configuration"]["sha256"] == hashlib.sha256(image).hexdigest()
        assert row["instruction_words"] == handle.program.total_instruction_words
        assert row["schedule_only"] is False

    @pytest.mark.parametrize("kernel, spec", [
        ("gradient", OverlaySpec("v1")),
        ("poly7", OverlaySpec("v3", depth=8, fifo_depth=2)),
    ], ids=["gradient-v1", "poly7-v3-fifo2"])
    def test_compile_row_carries_the_schedules_warmup_bound(self, client, kernel, spec):
        row = client.compile(kernel, spec)
        handle = Toolchain(cache=ScheduleCache(capacity=4)).compile(kernel, spec)
        assert row["warmup_bound_cycles"] == steady_state_warmup_bound(handle.schedule) > 0

    def test_compile_from_mini_c_source(self, client):
        row = client.compile(source=GRADIENT_SOURCE, overlay=OverlaySpec())
        assert row["kernel"] == "grad"
        assert row["configuration"] is not None

    def test_compile_of_a_literal_past_int32_max_answers_ok(self, client):
        # 0x80000000 is past int32's largest value; it lowers to its signed word.
        row = client.compile(
            source="void f(int a, int *o) { *o = a + 0x80000000; }", overlay=OverlaySpec("v1")
        )
        assert row["configuration"] is not None

    def test_compile_rejects_a_leading_zero_literal_as_e_params(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.compile(source="int f(int a) { return a + 007; }", overlay=OverlaySpec())
        assert excinfo.value.code == E_PARAMS
        assert "invalid integer literal '007'" in str(excinfo.value)

    def test_compile_unknown_kernel_is_e_kernel(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.compile("no_such_kernel")
        assert excinfo.value.code == E_KERNEL

    def test_compile_without_kernel_or_source_is_e_params(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("compile", {})
        assert excinfo.value.code == E_PARAMS

    def test_compile_rejects_non_spec_overlay(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("compile", {"kernel": "gradient", "overlay": "v3"})
        assert excinfo.value.code == E_PARAMS

    def test_compile_with_a_mistyped_fixed_flag_is_e_params(self, service):
        params = {"kernel": "gradient", "overlay": {"variant": "v3", "fixed": "false"}}
        response = service.handle({"op": "compile", "params": params})
        assert response["ok"] is False
        assert response["error"]["code"] == E_PARAMS
        assert "fixed" in response["error"]["message"]

    def test_compile_rejects_wrong_spec_tag(self, client):
        wire = spec_to_wire(SimSpec())
        with pytest.raises(ServiceError) as excinfo:
            client.request("compile", {"kernel": "gradient", "overlay": wire})
        assert excinfo.value.code == E_PARAMS

    @pytest.mark.parametrize(
        "sim",
        [
            {"type": "sim", "data": {"engine": "fast", "detector": "occupancy"}},
            {"engine": "fast", "detector": "legacy"},
        ],
        ids=["wire", "dict"],
    )
    def test_simulate_rejects_retired_detector_field(self, client, sim):
        params = {"kernel": "gradient", "overlay": spec_to_wire(OverlaySpec()), "sim": sim}
        with pytest.raises(ServiceError) as excinfo:
            client.request("simulate", params)
        assert excinfo.value.code == E_PARAMS
        assert "detector" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, data, named",
        [
            ("sim", {"num_blocks": "12"}, "num_blocks"),
            ("sim", {"num_blocks": 2.5}, "num_blocks"),
            ("sim", {"seed": [1]}, "seed"),
            ("sim", {"trace": 1}, "trace"),
            ("sim", {"verify": "false"}, "verify"),
            ("overlay", {"fifo_depth": "8"}, "FIFO depth"),
        ],
        ids=["blocks-str", "blocks-float", "seed-list", "trace-int", "verify-str", "fifo-str"],
    )
    def test_mistyped_spec_fields_are_e_params(self, service, field, data, named):
        params = {"kernel": "gradient", "overlay": {}, "sim": {"engine": "fast"}}
        params[field] = {**params[field], **data}
        response = service.handle({"op": "simulate", "params": params})
        assert response["ok"] is False
        assert response["error"]["code"] == E_PARAMS
        assert named in response["error"]["message"]

    @pytest.mark.parametrize("op", ["simulate", "evaluate"])
    @pytest.mark.parametrize("num_blocks", [MAX_SIM_BLOCKS + 1, 10**12], ids=["past-bound", "1e12"])
    @pytest.mark.parametrize("form", ["dict", "wire"])
    def test_oversized_streams_are_e_params(self, service, op, num_blocks, form):
        sim = {"engine": "fast", "num_blocks": num_blocks}
        if form == "wire":
            sim = spec_to_wire(SimSpec(**sim))
        params = {"kernel": "gradient", "overlay": {}, "sim": sim}
        response = service.handle({"op": op, "params": params})
        assert response["ok"] is False
        assert response["error"]["code"] == E_PARAMS
        assert str(MAX_SIM_BLOCKS) in response["error"]["message"]

    @pytest.mark.parametrize("op", ["simulate", "evaluate"])
    @pytest.mark.parametrize(
        "sim",
        [{"engine": "fast", "num_blocks": 10**12}, {"engine": "fast", "num_blocks": "many"}],
        ids=["oversized", "mistyped"],
    )
    def test_a_refused_sim_costs_no_compile(self, service, op, sim):
        params = {"kernel": "poly7", "overlay": {"variant": "v2"}, "sim": sim}
        response = service.handle({"op": op, "params": params})
        assert response["error"]["code"] == E_PARAMS
        assert service.cache.stats.misses == 0
        # The sim is checked before the kernel, so its error wins.
        params["kernel"] = "no-such-kernel"
        response = service.handle({"op": op, "params": params})
        assert response["error"]["code"] == E_PARAMS

    def test_evaluate_matches_direct_call(self, client):
        spec = OverlaySpec(variant="v1")
        row = client.evaluate("gradient", spec)
        toolchain = Toolchain(cache=ScheduleCache(capacity=4))
        direct = toolchain.evaluate(toolchain.compile("gradient", spec)).as_row()
        assert row == direct

    def test_simulate_reports_reference_match(self, client):
        row = client.simulate(
            "gradient", OverlaySpec(variant="v3"), sim=SimSpec(engine="fast")
        )
        assert row["matches_reference"] is True
        assert row["measured_ii"] is not None
        assert "outputs" not in row

    def test_simulate_include_outputs(self, client):
        row = client.simulate("gradient", OverlaySpec(), include_outputs=True)
        assert isinstance(row["outputs"], list) and row["outputs"]

    def test_verify_returns_the_report_dict(self, client):
        report = client.verify("gradient", OverlaySpec(variant="v3"))
        assert report["ok"] is True
        assert report["kernel"] == "gradient"

    def test_kernels_speaks_the_library(self, client):
        rows = client.kernels()
        assert {row["name"] for row in rows} == set(kernel_names())

    def test_schedulers_speaks_the_registry(self, client):
        from repro.schedule.registry import scheduler_names

        rows = client.schedulers()
        assert {row["name"] for row in rows} == set(scheduler_names())

    def test_models_speaks_the_registry(self, client):
        from repro.metrics.models import model_names

        rows = client.models()
        assert {row["name"] for row in rows} == set(model_names())

    def test_every_op_has_a_handler(self, service):
        assert set(service._handlers) == set(OPS)

    def test_response_mirrors_request_id(self, service):
        response = service.handle({"op": "ping", "id": "abc-123"})
        assert response["ok"] is True
        assert response["id"] == "abc-123"

    def test_error_response_echoes_id_even_when_decode_fails(self, service):
        response = service.handle({"op": "ping", "version": 99, "id": 42})
        assert response["ok"] is False
        assert response["error"]["code"] == E_VERSION
        assert response["id"] == 42

    def test_handler_errors_never_raise_out_of_handle(self, service):
        response = service.handle("not even a dict")
        assert response["ok"] is False
        assert response["error"]["code"] == E_PROTOCOL


class TestStatsEndpoint:
    def test_stats_snapshot_shape(self, client, service):
        client.compile("gradient", OverlaySpec())
        client.compile("gradient", OverlaySpec())  # warm: cache hit
        snapshot = client.stats()
        assert snapshot["version"] == PROTOCOL_VERSION
        assert snapshot["uptime_s"] >= 0
        compile_row = snapshot["endpoints"]["compile"]
        assert compile_row["requests"] == 2
        assert compile_row["errors"] == 0
        assert compile_row["p50_ms"] is not None
        cache = snapshot["cache"]
        assert cache["misses"] == 1
        assert cache["hits"] + cache["coalesced"] == 1
        assert cache["entries"] == 1
        assert cache["capacity"] == service.cache.capacity
        assert snapshot["tenants"]["default"]["isolated"] is False

    def test_stats_counts_errors_per_endpoint(self, client):
        with pytest.raises(ServiceError):
            client.compile("no_such_kernel")
        snapshot = client.stats()
        assert snapshot["endpoints"]["compile"]["errors"] == 1

    def test_protocol_failures_are_accounted_separately(self, service):
        service.handle({"op": "frobnicate"})
        client = InProcessClient(service)
        snapshot = client.stats()
        assert snapshot["endpoints"]["_protocol"]["requests"] == 1
        assert snapshot["endpoints"]["_protocol"]["errors"] == 1

    def test_render_stats_is_printable(self, client):
        from repro.service.stats import render_stats

        client.compile("gradient", OverlaySpec())
        text = render_stats(client.stats())
        assert "compile" in text
        assert "shared compile cache" in text


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------
class TestTenancy:
    def test_shared_tenants_share_the_compile_cache(self, service):
        spec = OverlaySpec(variant="v3")
        a = InProcessClient(service, tenant="team-a")
        b = InProcessClient(service, tenant="team-b")
        row_a = a.compile("gradient", spec)
        row_b = b.compile("gradient", spec)
        assert row_a["configuration"]["sha256"] == row_b["configuration"]["sha256"]
        stats = service.cache.stats
        assert stats.misses == 1  # one pipeline run, tenant B rode the cache
        assert stats.hits + stats.coalesced == 1
        assert sorted(a.stats()["tenants"]) == ["team-a", "team-b"]

    def test_isolated_tenant_gets_a_private_cache(self, service):
        spec = OverlaySpec(variant="v1")
        shared = InProcessClient(service, tenant="open")
        private = InProcessClient(service, tenant="sealed", isolated=True)
        shared.compile("gradient", spec)
        private.compile("gradient", spec)
        # The isolated compile ran its own pipeline: the shared cache saw
        # exactly one miss, the private cache holds its own entry.
        assert service.cache.stats.misses == 1
        assert len(service.cache) == 1
        sealed = service.tenant("sealed", isolated=True)
        assert sealed.toolchain.cache is not service.cache
        assert len(sealed.toolchain.cache) == 1
        assert sealed.toolchain.cache.stats.misses == 1

    def test_isolation_mode_is_fixed_at_tenant_creation(self, service):
        InProcessClient(service, tenant="team-a").ping()
        with pytest.raises(ServiceError) as excinfo:
            InProcessClient(service, tenant="team-a", isolated=True).ping()
        assert excinfo.value.code == E_PARAMS
        assert "isolation" in str(excinfo.value)

    def test_stats_reports_per_tenant_cache_views(self, service):
        InProcessClient(service, tenant="open").compile("gradient", OverlaySpec())
        InProcessClient(service, tenant="sealed", isolated=True).compile(
            "gradient", OverlaySpec()
        )
        snapshot = InProcessClient(service).stats()
        tenants = snapshot["tenants"]
        assert tenants["open"]["isolated"] is False
        assert tenants["sealed"]["isolated"] is True
        # The shared tenant's view is the service cache; the isolated one's
        # is its private LRU.
        assert tenants["open"]["cache"]["capacity"] == service.cache.capacity
        assert tenants["sealed"]["cache"]["capacity"] == service.isolated_capacity

    def test_shared_tenants_compile_through_one_lru_of_the_service_capacity(self):
        """``capacity`` bounds one least-recently-used cache, whichever
        shared tenant compiles: the fourth distinct kernel evicts the first."""
        service = OverlayService(capacity=3)
        try:
            assert type(service.cache) is ScheduleCache
            assert service.cache.capacity == 3
            spec = OverlaySpec(variant="v1")
            kernels = ["gradient", "chebyshev", "qspline", "poly6"]
            for index, kernel in enumerate(kernels):
                InProcessClient(service, tenant=f"team-{index % 2}").compile(kernel, spec)
            stats = service.cache.stats
            assert (stats.misses, stats.hits, stats.evictions) == (4, 0, 1)
            for index, kernel in enumerate(kernels[1:]):
                InProcessClient(service, tenant=f"team-{index % 2}").compile(kernel, spec)
            assert (stats.misses, stats.hits, stats.evictions) == (4, 3, 1)
            InProcessClient(service, tenant="team-1").compile(kernels[0], spec)
            assert (stats.misses, stats.hits, stats.evictions) == (5, 3, 2)
            row = InProcessClient(service).stats()["cache"]
            assert set(row) == set(CacheStats().as_dict()) | {"entries", "capacity"}
            assert (row["entries"], row["capacity"], row["misses"]) == (3, 3, 5)
        finally:
            service.close()


# ---------------------------------------------------------------------------
# coalescing: the acceptance test
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_k_identical_requests_run_the_pipeline_once(self, monkeypatch):
        """K concurrent identical compiles: one pipeline run, K artifacts."""
        K = 8
        pipeline_runs = []
        original = ScheduleCache._compile_miss

        def slow_compile(self, key, dfg, overlay):
            pipeline_runs.append(key)  # list.append is atomic under the GIL
            time.sleep(0.2)  # hold the leader in the pipeline so others pile up
            return original(self, key, dfg, overlay)

        monkeypatch.setattr(ScheduleCache, "_compile_miss", slow_compile)
        service = OverlayService(capacity=32)
        spec = OverlaySpec(variant="v3")
        barrier = threading.Barrier(K)
        rows = [None] * K
        errors = []

        def worker(index):
            client = InProcessClient(service, tenant=f"tenant-{index % 4}")
            barrier.wait()
            try:
                rows[index] = client.compile("gradient", spec)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.close()

        assert not errors
        assert len(pipeline_runs) == 1, "the mapping pipeline must run exactly once"
        digests = {row["configuration"]["sha256"] for row in rows}
        assert len(digests) == 1, "all K callers must receive the identical artifact"
        stats = service.cache.stats
        assert stats.misses == 1
        assert stats.coalesced >= 1  # the pile-up was real, not sequential hits
        assert stats.hits + stats.coalesced == K - 1

    def test_coalesced_errors_fan_out_to_every_waiter(self, monkeypatch):
        K = 4

        def failing_compile(self, key, dfg, overlay):
            time.sleep(0.1)
            raise CodegenError("forced failure for every caller")

        monkeypatch.setattr(ScheduleCache, "_compile_miss", failing_compile)
        service = OverlayService(capacity=32)
        barrier = threading.Barrier(K)
        codes = []
        lock = threading.Lock()

        def worker():
            client = InProcessClient(service)
            barrier.wait()
            try:
                client.compile("gradient", OverlaySpec(variant="v3"))
            except ServiceError as error:
                with lock:
                    codes.append(error.code)

        threads = [threading.Thread(target=worker) for _ in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.close()
        assert codes == ["E_CODEGEN"] * K


# ---------------------------------------------------------------------------
# socket transport
# ---------------------------------------------------------------------------
class TestSocketTransport:
    def test_tcp_round_trip_matches_in_process(self, service):
        spec = OverlaySpec(variant="v3")
        expected = InProcessClient(service).compile("gradient", spec)
        with BackgroundServer(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.ping()["pong"] is True
                row = client.compile("gradient", spec)
                assert row["configuration"]["sha256"] == (
                    expected["configuration"]["sha256"]
                )

    def test_tcp_error_codes_survive_the_wire(self, service):
        with BackgroundServer(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.compile("no_such_kernel")
                assert excinfo.value.code == E_KERNEL
                with pytest.raises(ServiceError) as excinfo:
                    client.request("frobnicate")
                assert excinfo.value.code == E_OP
                # The connection survives failed requests.
                assert client.ping()["pong"] is True

    def test_tcp_malformed_frame_gets_a_protocol_error(self, service):
        with BackgroundServer(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client._connect()
                client._sock.sendall(b"{this is not json\n")
                response = json.loads(client._file.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == E_PROTOCOL
                # ... and the connection still works afterwards.
                assert client.ping()["pong"] is True

    def test_tcp_line_past_the_stream_default_is_answered(self, service):
        # 80 kB, past asyncio's default 64 KiB stream limit.
        source = "// " + "x" * 80_000 + "\n" + GRADIENT_SOURCE
        with BackgroundServer(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                row = client.compile(source=source, overlay=OverlaySpec(variant="v1"))
                assert row["kernel"] == "grad"
                assert client.ping()["pong"] is True

    def test_tcp_over_limit_line_is_answered_then_closed(self, service):
        line = b'{"op": "ping", "pad": "' + b"x" * MAX_REQUEST_BYTES + b'"}\n'
        with BackgroundServer(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(line)
                with sock.makefile("rb") as stream:
                    response = json.loads(stream.readline())
                    # One answer naming the limit, then the server hangs up.
                    assert stream.readline() == b""
            assert response["ok"] is False
            assert response["error"]["code"] == E_PROTOCOL
            assert str(MAX_REQUEST_BYTES) in response["error"]["message"]
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.ping()["pong"] is True

    def test_tcp_deeply_nested_line_keeps_the_connection(self, service):
        with BackgroundServer(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client._connect()
                client._sock.sendall(b"[" * 30_000 + b"]" * 30_000 + b"\n")
                response = json.loads(client._file.readline())
                assert response["error"]["code"] == E_PROTOCOL
                assert client.ping()["pong"] is True
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.ping()["pong"] is True

    def test_concurrent_tcp_clients(self, service):
        K = 6
        spec = OverlaySpec(variant="v1")
        digests = [None] * K
        with BackgroundServer(service) as server:

            def worker(index):
                with ServiceClient(
                    "127.0.0.1", server.port, tenant=f"t{index}"
                ) as client:
                    digests[index] = client.compile("gradient", spec)[
                        "configuration"
                    ]["sha256"]

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(K)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert len(set(digests)) == 1
        assert service.cache.stats.misses == 1


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------
class TestServiceCLI:
    def test_stats_subcommand_renders_a_live_server(self, service, capsys):
        from repro.cli import main

        InProcessClient(service).compile("gradient", OverlaySpec())
        with BackgroundServer(service) as server:
            assert main(["stats", "--port", str(server.port)]) == 0
            out = capsys.readouterr().out
            assert "overlay service at 127.0.0.1" in out
            assert "compile" in out

    def test_stats_subcommand_json(self, service, capsys):
        from repro.cli import main

        with BackgroundServer(service) as server:
            assert main(["stats", "--port", str(server.port), "--json"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert snapshot["version"] == PROTOCOL_VERSION

    def test_stats_subcommand_reports_unreachable_server(self, capsys):
        from repro.cli import main

        assert main(["stats", "--port", "1"]) == 2
        assert "cannot reach overlay service" in capsys.readouterr().err

    def test_serve_subcommand_is_wired(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--capacity", "16"]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.capacity == 16
        with pytest.raises(SystemExit):  # one shared cache: nothing to shard
            build_parser().parse_args(["serve", "--shards", "2"])

    @pytest.mark.parametrize("flag", ["--capacity", "--isolated-capacity"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_serve_refuses_a_capacity_below_one(self, flag, value, capsys, monkeypatch):
        from repro.cli import main
        from repro.service import OverlayService

        def never(*args, **kwargs):
            raise AssertionError("a refused capacity must not start a service")

        monkeypatch.setattr(OverlayService, "__init__", never)
        assert main(["serve", "--port", "0", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be at least 1, got {value}\n"
