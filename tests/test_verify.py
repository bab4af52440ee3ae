"""Static verification layer: passes, reports, API and CLI wiring.

Five layers of guarantees:

* **the clean library is clean** — every kernel x variant x scheduler
  artifact the toolchain produces yields zero diagnostics (fast subset
  always; the full grid under ``--runslow``);
* **each piece of work once** — the DFG checks run once per node set (the
  ``dfg`` and ``schedule`` passes, and every copy of a graph, share the
  verdict), each distinct instruction word is decoded once per process in
  a bounded memo, and a memoised decode never hides a corrupted word;
* **the diagnostic model round-trips** — ``Diagnostic`` / ``VerifyReport``
  survive JSON exactly, reject malformed codes and unknown fields;
* **session wiring** — ``Toolchain.verify`` caches full-suite verdicts on
  the artifact key, ``compile(check=True)`` raises
  :class:`~repro.errors.VerificationError` on error diagnostics, and
  artifacts from third-party scheduler strategies are verified on first
  compile automatically;
* **the CLI gate** — ``repro-overlay check`` exits 0 on the clean library
  and its ``--json`` reports parse back into :class:`VerifyReport`.
"""

import copy
import dataclasses
import json

import pytest

from repro.api import Toolchain
from repro.cli import main
from repro.engine.cache import ScheduleCache
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    VerificationError,
)
from repro.frontend.cparser import lower_c_kernel
from repro.kernels import kernel_names
from repro.kernels.library import KERNEL_C_SOURCES
from repro.schedule.registry import (
    is_builtin_scheduler,
    register_scheduler,
    schedule_with,
    unregister_scheduler,
)
from repro.specs import OverlaySpec
from repro.verify import (
    Diagnostic,
    Severity,
    VerifyContext,
    VerifyReport,
    get_pass,
    pass_names,
    run_passes,
)

ALL_VARIANTS = ("baseline", "v1", "v2", "v3", "v4", "v5")
STRATEGIES = ("linear", "clustered", "modulo", "alap", "auto")
FAST_KERNELS = ("gradient", "chebyshev", "poly7")


def _grid_points(kernels, variants, schedulers):
    toolchain = Toolchain(ScheduleCache())
    for kernel in kernels:
        for variant in variants:
            for scheduler in schedulers:
                spec = OverlaySpec(variant=variant, scheduler=scheduler)
                try:
                    handle = toolchain.compile(
                        kernel, spec, allow_schedule_only=True
                    )
                except InfeasibleScheduleError:
                    continue
                yield (kernel, variant, scheduler), handle


# ---------------------------------------------------------------------------
# the clean library is clean
# ---------------------------------------------------------------------------
class TestCleanLibrary:
    def test_fast_subset_yields_zero_diagnostics(self):
        checked = 0
        for point, handle in _grid_points(
            FAST_KERNELS, ("baseline", "v1", "v3"), STRATEGIES
        ):
            report = run_passes(VerifyContext.from_handle(handle))
            assert report.diagnostics == (), (point, report.codes)
            checked += 1
        assert checked >= 30

    @pytest.mark.slow
    def test_full_library_yields_zero_diagnostics(self):
        checked = 0
        for point, handle in _grid_points(
            kernel_names(), ALL_VARIANTS, STRATEGIES
        ):
            report = run_passes(VerifyContext.from_handle(handle))
            assert report.diagnostics == (), (point, report.codes)
            checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_an_output_the_last_stage_never_emits_is_flagged(self, variant):
        from repro.schedule.linear import schedule_linear

        # A strategy called directly skips schedule_with's refusal of
        # constant-fed outputs; the verifier still catches the artifact.
        dfg = lower_c_kernel("int k(int a, int *o) { *o = a * a; return 7; }")
        schedule = schedule_linear(dfg, OverlaySpec(variant).build_overlay(dfg))
        report = run_passes(VerifyContext(schedule=schedule))
        returned = dfg.outputs()[-1]
        assert [(d.code, d.node) for d in report.errors] == [("SCHED010", returned.node_id)]

    def test_schedule_only_artifacts_skip_program_passes(self):
        # No library kernel currently overflows codegen, so build the
        # schedule-only shape directly: program-dependent passes must skip.
        handle = next(_grid_points(("gradient",), ("v1",), ("linear",)))[1]
        ctx = VerifyContext(
            schedule=handle.schedule,
            spec=handle.spec,
            key=handle.key,
        )
        report = run_passes(ctx)
        assert report.diagnostics == (), report.codes
        assert "regalloc" not in report.passes
        assert "binary" not in report.passes
        assert "schedule" in report.passes


# ---------------------------------------------------------------------------
# each piece of work once per node set / per process
# ---------------------------------------------------------------------------
class TestSharedWork:
    @pytest.fixture
    def handle(self):
        # Clustered V3 pads with NOPs and passes: words repeat within a FU.
        return Toolchain(ScheduleCache()).compile(
            "poly7", OverlaySpec(variant="v3", scheduler="clustered")
        )

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_each_distinct_word_is_decoded_once(self, monkeypatch, handle):
        from repro.verify import binary_checks

        other = Toolchain(ScheduleCache()).compile(
            "gradient", OverlaySpec(variant="v3", scheduler="clustered")
        )
        binary_checks._DECODED.clear()
        calls = self._count_calls(monkeypatch, binary_checks, "decode_instruction")
        # Two artifacts, each verified twice: the memo outlives a verification.
        for artifact in (handle, other, handle, other):
            assert run_passes(VerifyContext.from_handle(artifact)).ok
        words = [
            word
            for artifact in (handle, other)
            for program in artifact.program.fu_programs
            for word in program.encoded_words()
        ]
        assert len(set(words)) < len(words)
        assert sorted(word for (word,) in calls) == sorted(set(words))

    def test_dfg_checks_run_once_per_verification(self, monkeypatch):
        from repro.verify import dfg_checks

        # A freshly lowered graph: the library's DFGs may carry a verdict
        # from an earlier test.
        dfg = lower_c_kernel(KERNEL_C_SOURCES["gradient"])
        calls = self._count_calls(monkeypatch, dfg_checks, "check")
        toolchain = Toolchain(ScheduleCache())
        handles = [
            toolchain.compile(dfg.copy(), OverlaySpec(variant="v3", scheduler=strategy))
            for strategy in ("linear", "clustered", "modulo", "alap")
        ]
        for handle in handles:
            report = run_passes(VerifyContext.from_handle(handle))
            assert {"dfg", "schedule"} <= set(report.passes)
            assert report.ok
        assert len(calls) == 1
        # The schedule pass alone reads the verdict it gates on.
        get_pass("schedule").func(VerifyContext.from_handle(handles[0]))
        assert len(calls) == 1

    def test_a_copy_that_gains_a_node_gets_fresh_derived_values(self):
        from repro.dfg.analysis import value_lifetimes
        from repro.dfg.opcodes import OpCode

        dfg = lower_c_kernel(KERNEL_C_SOURCES["gradient"])
        schedule = schedule_with("linear", dfg, OverlaySpec("v1").build_overlay(dfg))
        verdict = VerifyContext(schedule=schedule).dfg_diagnostics
        value_lifetimes(dfg, schedule.assignment)
        shared = dfg.derived()
        assert shared.dfg_diagnostics is verdict and shared.value_uses is not None

        grown = dfg.copy()
        assert grown.derived() is shared
        dead = grown.new_node(OpCode.NEG, operands=(grown.inputs()[0].node_id,))
        fresh = grown.derived()
        assert fresh is not shared
        assert fresh.dfg_diagnostics is None and fresh.value_uses is None
        grown_schedule = dataclasses.replace(schedule, dfg=grown)
        codes = [d.code for d in VerifyContext(schedule=grown_schedule).dfg_diagnostics]
        assert codes == ["DFG007"]
        assert dead.node_id in value_lifetimes(grown, {**schedule.assignment, dead.node_id: 0})
        # The source keeps its own memo.
        assert dfg.derived() is shared and shared.dfg_diagnostics == ()

    @pytest.mark.parametrize("name", ["dfg-dangling-operand", "dfg-cycle"])
    def test_a_dfg_mutant_gets_its_own_verdict(self, name, handle):
        from repro.verify import apply_mutation

        ctx = VerifyContext.from_handle(handle)
        assert ctx.dfg_diagnostics == ()
        mutant = apply_mutation(ctx, name)
        assert mutant.dfg.derived() is not ctx.dfg.derived()
        assert mutant.dfg_diagnostics != ()
        assert ctx.dfg_diagnostics == ()
        assert ctx.dfg.derived().dfg_diagnostics == ()

    def test_decode_memo_never_exceeds_its_bound(self, monkeypatch, handle):
        from repro.verify import binary_checks

        words = sorted(
            {word for program in handle.program.fu_programs for word in program.encoded_words()}
        )
        limit = len(words) // 3
        monkeypatch.setattr(binary_checks, "DECODE_MEMO_LIMIT", limit)
        memo = binary_checks._Decoder()
        sizes = []
        for word in words + [word ^ (31 << 2) for word in words]:
            decoded = memo[word]
            assert memo[word] is decoded
            sizes.append(len(memo))
        assert max(sizes) == limit
        # Clearing never changes an answer.
        assert all(binary_checks._Decoder()[word] == memo[word] for word in words)
        binary_checks._DECODED.clear()
        monkeypatch.setattr(binary_checks, "_DECODED", memo)
        assert run_passes(VerifyContext.from_handle(handle)).ok
        assert len(memo) <= limit

    def test_threads_racing_on_a_small_memo_read_correct_decodes(self, monkeypatch):
        import sys
        import threading

        from repro.verify import binary_checks

        toolchain = Toolchain(ScheduleCache())
        handles = [
            toolchain.compile(kernel, OverlaySpec(variant=variant, scheduler="clustered"))
            for kernel in ("gradient", "poly7")
            for variant in ("v3", "v5")
        ]
        limit = 16
        memo = binary_checks._Decoder()
        monkeypatch.setattr(binary_checks, "DECODE_MEMO_LIMIT", limit)
        monkeypatch.setattr(binary_checks, "_DECODED", memo)
        workers = 8
        reports = [None] * workers
        barrier = threading.Barrier(workers)

        def worker(index):
            barrier.wait()
            reports[index] = [run_passes(VerifyContext.from_handle(h)).ok for h in handles[index % 2 :] * 3]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose races
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(report and all(report) for report in reports)
        # Racing threads may each add one word past the bound before a clear.
        assert len(memo) <= limit + workers
        fresh = binary_checks._Decoder()
        assert all(decoded == fresh[word] for word, decoded in list(memo.items()))

    def test_undecodable_word_is_reported_after_its_slot_decoded(self, handle):
        image = copy.deepcopy(handle.configuration)
        words = image.fu_instruction_words[0]
        # The program's copy of this slot decodes first; the image's copy
        # carries an unknown opcode code (31) and must still be flagged.
        words[0] = (words[0] & ~(0x1F << 2)) | (31 << 2)
        ctx = dataclasses.replace(VerifyContext.from_handle(handle), configuration=image)
        undecodable = [
            d
            for d in get_pass("binary").func(ctx)
            if d.code == "BIN001" and "does not decode" in d.message
        ]
        assert [(d.stage, d.slot) for d in undecodable] == [(0, 0)]


# ---------------------------------------------------------------------------
# diagnostic model
# ---------------------------------------------------------------------------
class TestDiagnosticModel:
    def test_diagnostic_roundtrip_and_rendering(self):
        diagnostic = Diagnostic(
            code="SCHED003",
            severity="error",
            message="backwards dependence",
            pass_name="schedule",
            stage=2,
            slot=5,
            node=7,
        )
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.family == "SCHED"
        assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic
        assert "stage 2" in str(diagnostic)
        assert "SCHED003" in str(diagnostic)

    def test_malformed_code_rejected(self):
        with pytest.raises(ConfigurationError, match="PREFIX000"):
            Diagnostic(code="sched3", severity="error", message="x")

    def test_report_roundtrips_through_json(self):
        report = VerifyReport(
            kernel="gradient",
            variant="v3",
            scheduler="clustered",
            passes=("dfg", "schedule"),
            diagnostics=(
                Diagnostic(
                    code="SCHED006",
                    severity="error",
                    message="overflow",
                    pass_name="schedule",
                    stage=1,
                ),
                Diagnostic(
                    code="DFG007", severity="warning", message="unused input"
                ),
            ),
        )
        restored = VerifyReport.from_json(report.to_json())
        assert restored == report
        assert not restored.ok
        assert restored.codes == ("DFG007", "SCHED006")
        assert len(restored.errors) == 1 and len(restored.warnings) == 1
        assert "FAIL" in restored.summary()

    def test_report_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            VerifyReport.from_dict(
                {"kernel": "k", "variant": "v1", "scheduler": "auto", "bogus": 1}
            )

    def test_clean_report_is_ok(self):
        report = VerifyReport(kernel="k", variant="v1", scheduler="auto")
        assert report.ok and report.codes == ()
        assert "ok" in report.summary()


# ---------------------------------------------------------------------------
# pass registry
# ---------------------------------------------------------------------------
class TestPassRegistry:
    def test_builtin_passes_registered_in_order(self):
        assert pass_names() == ("dfg", "schedule", "regalloc", "binary", "spec")


# ---------------------------------------------------------------------------
# session wiring
# ---------------------------------------------------------------------------
class TestToolchainWiring:
    def test_verify_caches_full_suite_verdicts(self):
        toolchain = Toolchain(ScheduleCache())
        handle = toolchain.compile("gradient", OverlaySpec("v3"))
        first = toolchain.verify(handle)
        assert first.ok
        assert toolchain.verify(handle) is first  # verdict cache hit
        assert run_passes(VerifyContext.from_handle(handle)) == first  # a fresh run
        toolchain.cache.clear()
        assert toolchain.cache.get_verdict(handle.key) is None

    def test_compile_check_accepts_clean_artifacts(self):
        toolchain = Toolchain(ScheduleCache())
        handle = toolchain.compile("gradient", OverlaySpec("v3"), check=True)
        assert toolchain.cache.get_verdict(handle.key) is not None

    def test_source_compile_check_accepts_clean_artifacts(self):
        toolchain = Toolchain(ScheduleCache())
        handle = toolchain.compile(
            source="int f(int a, int b) { return a * b + a; }",
            overlay=OverlaySpec("v1"),
            name="mini",
            check=True,
        )
        assert toolchain.verify(handle).ok

    def test_builtin_schedulers_skip_auto_verification(self):
        toolchain = Toolchain(ScheduleCache())
        handle = toolchain.compile("gradient", OverlaySpec("v1"))
        assert is_builtin_scheduler(handle.key.scheduler)
        assert toolchain.cache.get_verdict(handle.key) is None

    def test_third_party_scheduler_verified_on_first_compile(self):
        register_scheduler(
            "test-verify-good",
            lambda dfg, overlay: schedule_with("linear", dfg, overlay),
        )
        try:
            toolchain = Toolchain(ScheduleCache())
            spec = OverlaySpec("v1", scheduler="test-verify-good")
            handle = toolchain.compile("gradient", spec)
            assert not is_builtin_scheduler(handle.key.scheduler)
            # The clean strategy compiles; its verdict is already cached, so
            # the warm compile does not re-run the passes.
            assert toolchain.cache.get_verdict(handle.key) is not None
            toolchain.compile("gradient", spec)
        finally:
            unregister_scheduler("test-verify-good")

    def test_broken_third_party_scheduler_raises_on_compile(self, unverified_strategy):
        toolchain = Toolchain(ScheduleCache())
        spec = OverlaySpec("v1", scheduler=unverified_strategy)
        with pytest.raises(VerificationError) as excinfo:
            toolchain.compile("gradient", spec)
        assert "SCHED007" in excinfo.value.report.codes

    def test_verify_rejects_non_handles(self):
        with pytest.raises(ConfigurationError, match="handle"):
            Toolchain(ScheduleCache()).verify("gradient")


# ---------------------------------------------------------------------------
# CLI gate
# ---------------------------------------------------------------------------
class TestCheckCommand:
    def test_check_clean_point_exits_zero(self, capsys):
        code = main(
            [
                "check",
                "--kernels",
                "gradient",
                "--variants",
                "v1,v3",
                "--schedulers",
                "linear,alap",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failing" in out

    def test_check_json_reports_parse_back(self, capsys):
        code = main(
            [
                "check",
                "--kernels",
                "gradient",
                "--variants",
                "v1",
                "--schedulers",
                "linear",
                "--json",
            ]
        )
        assert code == 0
        reports = [
            VerifyReport.from_dict(row)
            for row in json.loads(capsys.readouterr().out)
        ]
        assert reports and all(report.ok for report in reports)

    def test_check_rejects_unknown_names(self, capsys):
        assert main(["check", "--kernels", "not-a-kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().err
