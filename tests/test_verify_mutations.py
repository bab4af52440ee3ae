"""Mutation testing of the static verification passes.

The linter must not be vacuous: for every defect class the harness in
:mod:`repro.verify.mutate` seeds (DFG corruption, illegal schedules, unsound
register allocations, binary divergence, spec mismatches), the corrupted
artifact must be flagged by exactly the intended pass with the expected
diagnostic code — and only that family, so one seeded defect never smears
into unrelated diagnostics.  The clean artifacts these mutants start from
must verify with zero diagnostics (asserted again here, per point used).
"""

import pytest

from repro.api import Toolchain
from repro.dfg.serialize import dfg_fingerprint
from repro.engine.cache import ScheduleCache
from repro.errors import InfeasibleScheduleError
from repro.specs import OverlaySpec
from repro.verify import (
    VerifyContext,
    applicable_mutations,
    apply_mutation,
    get_mutation,
    mutation_names,
    run_passes,
)

#: Compact grid covering the applicability of every registered mutation
#: (chebyshev carries constants, poly7 x v3 exercises deep write-back
#: clustering, baseline exercises the non-overlap register file).
GRID = tuple(
    (kernel, variant, scheduler)
    for kernel in ("gradient", "chebyshev", "poly7")
    for variant in ("baseline", "v1", "v3")
    for scheduler in ("linear", "clustered")
)

DEFECT_CLASSES = ("dfg", "schedule", "regalloc", "binary", "spec")
_EXPECTED_PASS = {
    "dfg": "dfg",
    "schedule": "schedule",
    "regalloc": "regalloc",
    "binary": "binary",
    "spec": "spec",
}


@pytest.fixture(scope="module")
def grid_contexts():
    toolchain = Toolchain(ScheduleCache())
    contexts = {}
    for kernel, variant, scheduler in GRID:
        spec = OverlaySpec(variant=variant, scheduler=scheduler)
        try:
            handle = toolchain.compile(kernel, spec, allow_schedule_only=True)
        except InfeasibleScheduleError:
            continue
        contexts[(kernel, variant, scheduler)] = VerifyContext.from_handle(
            handle
        )
    return contexts


def test_every_defect_class_has_a_mutant():
    classes = {get_mutation(name).defect_class for name in mutation_names()}
    assert classes == set(DEFECT_CLASSES)


def test_every_mutation_applies_somewhere(grid_contexts):
    applicable = set()
    for ctx in grid_contexts.values():
        applicable.update(applicable_mutations(ctx))
    assert applicable == set(mutation_names())


@pytest.mark.parametrize("name", mutation_names())
def test_mutant_caught_by_intended_pass(name, grid_contexts):
    spec = get_mutation(name)
    family = spec.expected_code.rstrip("0123456789")
    caught = 0
    for point, ctx in grid_contexts.items():
        mutant = apply_mutation(ctx, name)
        if mutant is None:
            continue
        # The clean artifact is clean...
        assert run_passes(ctx).diagnostics == (), point
        # ...the mutant is flagged with the expected code...
        report = run_passes(mutant)
        assert spec.expected_code in report.codes, (point, report.codes)
        # ...by the intended pass...
        flagging = {
            d.pass_name for d in report.errors if d.code == spec.expected_code
        }
        assert flagging == {_EXPECTED_PASS[spec.defect_class]}, (point, flagging)
        # ...and the defect never smears into other diagnostic families.
        families = {d.family for d in report.errors}
        assert families == {family}, (point, sorted(families))
        caught += 1
    assert caught >= 1, f"mutation {name} applied nowhere on the test grid"


def test_mutants_leave_the_original_context_untouched(grid_contexts):
    point = ("gradient", "v3", "clustered")
    ctx = grid_contexts[point]
    for name in applicable_mutations(ctx):
        apply_mutation(ctx, name)
    assert run_passes(ctx).diagnostics == ()


@pytest.mark.parametrize("name", ["dfg-dangling-operand", "dfg-cycle"])
def test_dfg_mutants_hash_their_own_nodes(name, grid_contexts):
    # A DFG copy shares its source's derived values; a mutant edits its
    # nodes behind add_node, so it must neither read nor overwrite them.
    ctx = grid_contexts[("gradient", "v3", "clustered")]
    clean = dfg_fingerprint(ctx.dfg)
    mutant = apply_mutation(ctx, name)
    assert dfg_fingerprint(mutant.dfg) != clean
    assert dfg_fingerprint(ctx.dfg) == clean
