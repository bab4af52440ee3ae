"""Tests for instruction generation and configuration images."""

import pytest

from repro.api import Toolchain
from repro.dfg import from_json, to_json
from repro.engine.cache import ScheduleCache
from repro.errors import CodegenError
from repro.frontend import lower_c_kernel, trace_kernel
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V3
from repro.overlay.isa import InstructionKind, decode_instruction
from repro.program.binary import ConfigurationImage, build_configuration_image
from repro.program.codegen import generate_program
from repro.schedule import schedule_kernel
from repro.schedule.types import SlotKind
from repro.sim.overlay import simulate_schedule
from repro.specs import OverlaySpec, SimSpec


class TestCodegen:
    def test_one_program_per_fu(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        program = generate_program(schedule)
        assert len(program.fu_programs) == 4

    def test_v1_instruction_count_matches_slots(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        program = generate_program(schedule)
        for fu_program, stage in zip(program.fu_programs, schedule.stages):
            assert fu_program.num_instruction_words == stage.num_instructions

    def test_baseline_interleaves_load_instructions(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(BASELINE, gradient))
        program = generate_program(schedule)
        for fu_program, stage in zip(program.fu_programs, schedule.stages):
            loads = [i for i in fu_program.instructions if i.kind is InstructionKind.LOAD]
            assert len(loads) == stage.num_loads
            assert (
                fu_program.num_instruction_words
                == stage.num_instructions + stage.num_loads
            )

    def test_write_back_and_ndf_flags_propagate(self, poly7):
        schedule = schedule_kernel(poly7, LinearOverlay.fixed(V3, 8))
        program = generate_program(schedule)
        any_wb = False
        for fu_program, stage in zip(program.fu_programs, schedule.stages):
            offset = len(fu_program.instructions) - len(stage.slots)
            for slot, instruction in zip(stage.slots, fu_program.instructions[offset:]):
                if slot.kind is SlotKind.NOP:
                    assert instruction.kind is InstructionKind.NOP
                    continue
                assert instruction.wb == slot.write_back
                assert instruction.ndf == (not slot.forward)
                any_wb = any_wb or instruction.wb
        assert any_wb, "a clustered deep kernel must use write-back somewhere"

    def test_every_word_round_trips_through_the_encoder(self, qspline):
        schedule = schedule_kernel(qspline, LinearOverlay.for_kernel(V1, qspline))
        program = generate_program(schedule)
        for fu_program in program.fu_programs:
            for word, instruction in zip(fu_program.encoded_words(), fu_program.instructions):
                assert decode_instruction(word) == instruction

    def test_listing_mentions_every_fu(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        listing = generate_program(schedule).listing()
        for stage in range(4):
            assert f"FU{stage}:" in listing

    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    def test_programs_fit_the_instruction_memory(self, name):
        dfg = get_kernel(name)
        for overlay in (
            LinearOverlay.for_kernel(V1, dfg),
            LinearOverlay.fixed(V3, 8),
        ):
            program = generate_program(schedule_kernel(dfg, overlay))
            for fu_program in program.fu_programs:
                assert fu_program.num_instruction_words <= overlay.variant.instruction_memory_depth


def _mac_source(intrinsic):
    return (
        "void mac(int a, int b, int c, int d, int *o0) {\n"
        f"    int t = {intrinsic}(a, b, c);\n"
        "    *o0 = t - d;\n"
        "}\n"
    )


class TestThreeOperandOps:
    """The instruction word has no field for a third source register."""

    @pytest.mark.parametrize("variant", ["baseline", "v1", "v3"])
    @pytest.mark.parametrize("intrinsic", ["muladd", "mulsub"])
    def test_compile_refuses_to_drop_operand_c(self, intrinsic, variant):
        with pytest.raises(CodegenError, match=intrinsic.upper()):
            Toolchain(cache=ScheduleCache()).compile(
                source=_mac_source(intrinsic), overlay=OverlaySpec(variant)
            )

    @pytest.mark.parametrize("variant", ["baseline", "v1", "v3"])
    @pytest.mark.parametrize("engine", ["cycle", "fast", "batched"])
    def test_schedule_only_handle_still_simulates(self, variant, engine):
        toolchain = Toolchain(cache=ScheduleCache())
        handle = toolchain.compile(
            source=_mac_source("muladd"), overlay=OverlaySpec(variant), allow_schedule_only=True
        )
        assert handle.schedule_only
        result = toolchain.simulate(handle, SimSpec(engine=engine, num_blocks=16))
        assert result.matches_reference


class TestConfigurationImage:
    def test_image_sections_per_fu(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        image = build_configuration_image(schedule)
        assert image.num_fus == 4
        assert image.total_instruction_words == generate_program(schedule).total_instruction_words

    def test_bytes_roundtrip(self, qspline):
        schedule = schedule_kernel(qspline, LinearOverlay.for_kernel(V1, qspline))
        image = build_configuration_image(schedule)
        restored = ConfigurationImage.from_bytes(image.to_bytes())
        assert restored.fu_instruction_words == image.fu_instruction_words
        assert restored.fu_constants == image.fu_constants

    def test_size_accounts_for_headers(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel(V1, gradient))
        image = build_configuration_image(schedule)
        assert image.size_bytes == len(image.to_bytes())

    def test_constants_are_embedded(self, benchmarks):
        chebyshev = benchmarks["chebyshev"]
        schedule = schedule_kernel(chebyshev, LinearOverlay.for_kernel(V1, chebyshev))
        image = build_configuration_image(schedule)
        embedded = {value for constants in image.fu_constants for _, value in constants}
        assert {16, -20, 5} <= embedded or {16, 20, 5} <= embedded

    def test_configuration_smaller_for_fixed_depth_context_switch(self):
        """The V3 overlay only rewrites instruction memories, so its kernel
        configuration stays within the same order of magnitude as the
        per-kernel instruction count (paper: 0.25 us vs 0.73 ms)."""
        poly6 = get_kernel("poly6")
        schedule = schedule_kernel(poly6, LinearOverlay.fixed(V3, 8))
        image = build_configuration_image(schedule)
        assert image.size_bytes < 2048


#: A literal in [2**31, 2**32), past int32's largest value.
WIDE_CONSTANT_SOURCE = "void f(int a, int *o) { *o = a + 0x80000000; }"


def _wrap32(value):
    return ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


#: Kernel bodies whose result depends on the sign of a wide literal, with
#: what the overlay computes: the constant register holds the literal's
#: signed 32-bit word (0x80000000 is -2**31, 0xFFFFFFFF is -1).
SIGNED_LITERAL_CASES = {
    "min": ("*o = min(a, 0x80000000);", lambda a: -(2 ** 31)),
    "max": ("*o = max(a, 0x80000000);", lambda a: a),
    "abs": ("*o = a + abs(0xFFFFFFFF);", lambda a: _wrap32(a + 1)),
    "shr": ("*o = a + (0x80000000 >> 5);", lambda a: _wrap32(a - 67108864)),
}


class TestWideConstants:
    """The DFG and the constant register hold the literal's signed 32-bit word."""

    def test_check_gives_no_diagnostics(self):
        toolchain = Toolchain(cache=ScheduleCache())
        handle = toolchain.compile(
            source=WIDE_CONSTANT_SOURCE, overlay=OverlaySpec("v1"), check=True
        )
        assert toolchain.verify(handle).diagnostics == ()

    def test_image_stores_the_signed_word_and_round_trips(self):
        handle = Toolchain(cache=ScheduleCache()).compile(
            source=WIDE_CONSTANT_SOURCE, overlay=OverlaySpec("v1")
        )
        assert [node.value for node in handle.dfg.constants()] == [-(2 ** 31)]
        image = handle.configuration
        assert [value for section in image.fu_constants for _, value in section] == [-(2 ** 31)]
        restored = ConfigurationImage.from_bytes(image.to_bytes())
        assert restored.fu_instruction_words == image.fu_instruction_words
        assert restored.fu_constants == image.fu_constants

    def test_cycle_run_wraps_the_sum(self):
        toolchain = Toolchain(cache=ScheduleCache())
        handle = toolchain.compile(source=WIDE_CONSTANT_SOURCE, overlay=OverlaySpec("v1"))
        result = simulate_schedule(handle.schedule, input_blocks=[[5], [-1]], engine="cycle")
        assert result.outputs == [[-2147483643], [2147483647]]
        assert result.matches_reference

    @pytest.mark.parametrize("engine", ["cycle", "fast", "batched"])
    def test_traced_and_loaded_constants_hold_the_signed_word(self, engine):
        # A traced DFG, and one loaded from JSON, hold the wide constant as
        # the register does, so they compute what the mini-C kernel does.
        traced = trace_kernel(lambda a: a.min(0x80000000) + (a >> 1), name="f")
        kernels = {
            "traced": traced,
            "loaded": from_json(to_json(traced)),
            "mini-C": lower_c_kernel(
                "void f(int a, int *o) { *o = min(a, 0x80000000) + (a >> 1); }"
            ),
        }
        inputs = [5, -7, 2 ** 31 - 1, -(2 ** 31)]
        toolchain = Toolchain(cache=ScheduleCache())
        for label, dfg in kernels.items():
            handle = toolchain.compile(dfg, OverlaySpec("v1"))
            image = handle.configuration.fu_constants
            assert {node.value for node in handle.dfg.constants()} == {
                value for section in image for _, value in section
            }, label
            result = simulate_schedule(
                handle.schedule, input_blocks=[[a] for a in inputs], engine=engine
            )
            assert result.outputs == [[_wrap32(-(2 ** 31) + (a >> 1))] for a in inputs], label
            assert result.matches_reference, label

    @pytest.mark.parametrize("run_optimizer", [True, False])
    @pytest.mark.parametrize("engine", ["cycle", "fast", "batched"])
    @pytest.mark.parametrize("case", sorted(SIGNED_LITERAL_CASES))
    def test_sign_sensitive_ops_read_the_signed_word(self, case, engine, run_optimizer):
        # Unoptimized, the engine runs the op on the literal; optimized, the
        # constant folder does.
        body, expected = SIGNED_LITERAL_CASES[case]
        dfg = lower_c_kernel(f"void f(int a, int *o) {{ {body} }}", run_optimizer=run_optimizer)
        handle = Toolchain(cache=ScheduleCache()).compile(dfg, OverlaySpec("v1"), check=True)
        inputs = [5, -7, 2 ** 31 - 1, -(2 ** 31)]
        result = simulate_schedule(
            handle.schedule, input_blocks=[[a] for a in inputs], engine=engine
        )
        assert result.outputs == [[expected(a)] for a in inputs]
        assert result.matches_reference
