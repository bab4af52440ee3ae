"""Static verification of compiled artifacts — no simulation required.

The linter of the tool flow: a set of translation-validation passes that
re-derive, from a compiled artifact alone, every legality property the
compile pipeline promises — DFG structure, schedule legality (stage and
slot ordering, IWP spacing, FIFO discipline, instruction-memory bounds, the
analytic II floor), register-allocation soundness, binary consistency, and
spec/artifact consistency.  See ``docs/verify.md`` for the pass catalog.

Entry points, through the session facade (verdicts cached on the compile
cache)::

    report = toolchain.verify(handle)
    assert report.ok, report.summary()
    handle = toolchain.compile("qspline", spec, check=True)  # raises on errors

or, uncached, over one artifact::

    from repro.verify import VerifyContext, run_passes
    report = run_passes(VerifyContext.from_handle(handle))

The seeded-defect mutation harness in :mod:`repro.verify.mutate` proves the
passes are not vacuous: it corrupts clean artifacts one defect class at a
time and the test suite asserts every mutant is flagged by the intended
pass.
"""

from .diagnostics import Diagnostic, Severity, VerifyReport
from .engine import (
    VerifyContext,
    VerifyPass,
    get_pass,
    pass_names,
    register_pass,
    run_passes,
)
from .mutate import (
    MutationSpec,
    apply_mutation,
    applicable_mutations,
    get_mutation,
    mutation_names,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "VerifyReport",
    "VerifyContext",
    "VerifyPass",
    "get_pass",
    "pass_names",
    "register_pass",
    "run_passes",
    "MutationSpec",
    "apply_mutation",
    "applicable_mutations",
    "get_mutation",
    "mutation_names",
]
