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
from repro.dfg.builder import DFGBuilder
from repro.dfg.serialize import dfg_fingerprint
from repro.dfg.validate import collect_validation_errors, dfg_problems
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


#: What ``collect_validation_errors`` says about each DFG mutant's graph.
_VALIDATION_ERRORS = {
    "dfg-dangling-operand": "references unknown operand",
    "dfg-cycle": "contains a cycle",
}


@pytest.mark.parametrize("name", sorted(_VALIDATION_ERRORS))
def test_dfg_validation_reports_each_dfg_mutant(name, grid_contexts):
    # validate_dfg runs the dfg pass's walk, so a graph edited behind
    # add_node is reported rather than raising or passing.
    for point, ctx in grid_contexts.items():
        mutant = apply_mutation(ctx, name)
        if mutant is not None:
            errors = collect_validation_errors(mutant.dfg)
            assert any(_VALIDATION_ERRORS[name] in error for error in errors), (point, errors)


def test_dfg006_names_only_the_nodes_on_the_cycle():
    # gradient/V1's mutant closes SUB_N6 <-> SQR_N10; ADD_N12, ADD_N16 and
    # the output downstream of it are held up by the cycle but not on it.
    handle = Toolchain(ScheduleCache()).compile(
        "gradient", OverlaySpec("v1"), allow_schedule_only=True
    )
    mutant = apply_mutation(VerifyContext.from_handle(handle), "dfg-cycle")
    report = run_passes(mutant)
    assert [(d.code, d.node) for d in report.diagnostics] == [("DFG006", 6), ("DFG006", 10)]


def test_dfg006_skips_a_node_between_two_cycles():
    b = DFGBuilder("k")
    x = b.input("x")
    first = b.add(x, x)
    second = b.sub(first, x)
    between = b.mul(second, x)
    third = b.add(between, x)
    fourth = b.sub(third, x)
    after = b.neg(fourth)
    looped = b.abs(x)
    b.output(after)
    b.output(looped)
    dfg = b.dfg
    # add_node cannot close a cycle; dfg_problems reads only node.operands.
    for node_id, operands in ((first, (x, second)), (third, (between, fourth)), (looped, (looped,))):
        dfg._nodes[node_id] = dfg.node(node_id).with_operands(operands)
    cyclic = [node for kind, _, node in dfg_problems(dfg) if kind == "cycle"]
    assert cyclic == [first, second, third, fourth, looped]
