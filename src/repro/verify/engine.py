"""The verification engine: contexts, the pass registry, and the runner.

A :class:`VerifyContext` is the bundle of artifacts one compile produced —
at minimum the :class:`~repro.schedule.types.OverlaySchedule` (which carries
the DFG and the built overlay), optionally the register-allocated
:class:`~repro.program.codegen.OverlayProgram`, the serialised
:class:`~repro.program.binary.ConfigurationImage`, the resolved
:class:`~repro.specs.OverlaySpec` and the compile-cache key.  Passes receive
the context and return diagnostics; a pass whose inputs are absent (binary
checks on a schedule-only artifact) is skipped, so a report's ``passes``
tuple records exactly what ran.

Passes are pure static analyses — nothing here simulates, so verification
cost is linear in artifact size and safe to run inside compile paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..registry import Registry
from . import dfg_checks
from .diagnostics import Diagnostic, VerifyReport

#: A verification pass: context in, diagnostics out.
PassFunc = Callable[["VerifyContext"], List[Diagnostic]]


@dataclass(frozen=True)
class VerifyContext:
    """Everything one compile produced, as the passes want to see it."""

    schedule: "OverlaySchedule"
    program: Optional["OverlayProgram"] = None
    configuration: Optional["ConfigurationImage"] = None
    spec: Optional["OverlaySpec"] = None
    key: Optional["CacheKey"] = None

    @property
    def dfg(self):
        return self.schedule.dfg

    @property
    def overlay(self):
        return self.schedule.overlay

    @property
    def dfg_diagnostics(self) -> Tuple[Diagnostic, ...]:
        """The DFG checks' findings, derived once per node set: the ``dfg``
        pass reports them and the ``schedule`` pass gates on them.

        The verdict lives in the graph's derived values
        (:meth:`~repro.dfg.graph.DFG.derived`), so the copies of one graph
        that several strategies schedule share it; a graph that gains a node
        gets a fresh one.
        """
        derived = self.dfg.derived()
        verdict = derived.dfg_diagnostics
        if verdict is None:
            verdict = derived.dfg_diagnostics = tuple(dfg_checks.check(self.dfg))
        return verdict

    @classmethod
    def from_handle(cls, handle) -> "VerifyContext":
        """Build a context from a ``CompiledHandle`` (duck-typed: anything
        exposing ``schedule`` / ``program`` / ``configuration`` works)."""
        return cls(
            schedule=handle.schedule,
            program=getattr(handle, "program", None),
            configuration=getattr(handle, "configuration", None),
            spec=getattr(handle, "spec", None),
            key=getattr(handle, "key", None),
        )


@dataclass(frozen=True)
class VerifyPass:
    """A registered pass: name, diagnostic-code family, and the check."""

    name: str
    family: str
    func: PassFunc
    #: Attribute names of :class:`VerifyContext` that must be non-None for
    #: the pass to run; the runner skips the pass otherwise.
    requires: Tuple[str, ...] = ()

    def applicable(self, ctx: VerifyContext) -> bool:
        return all(getattr(ctx, attr) is not None for attr in self.requires)


#: Every registered pass, in execution order.
PASSES: Registry[VerifyPass] = Registry("verification pass")


def register_pass(
    name: str,
    func: PassFunc,
    *,
    family: str,
    requires: Sequence[str] = (),
    replace: bool = False,
) -> VerifyPass:
    """Register a verification pass (pass order is registration order)."""
    entry = VerifyPass(name=name, family=family, func=func, requires=tuple(requires))
    return PASSES.add(name, entry, replace)


def pass_names() -> Tuple[str, ...]:
    """Names of all registered passes, in execution order."""
    return tuple(PASSES.names())


get_pass = PASSES.get


def run_passes(
    ctx: VerifyContext, passes: Optional[Sequence[str]] = None
) -> VerifyReport:
    """Run the (selected) passes over one artifact and report the verdict."""
    selected = (
        [get_pass(name) for name in passes] if passes is not None else PASSES.entries()
    )
    ran: List[str] = []
    diagnostics: List[Diagnostic] = []
    for entry in selected:
        if not entry.applicable(ctx):
            continue
        ran.append(entry.name)
        diagnostics.extend(entry.func(ctx))
    overlay = ctx.overlay
    scheduler = ctx.key.scheduler if ctx.key is not None else ctx.schedule.scheduler
    return VerifyReport(
        kernel=ctx.dfg.name,
        variant=overlay.variant.name,
        scheduler=scheduler,
        passes=tuple(ran),
        diagnostics=tuple(diagnostics),
    )


def _register_builtins() -> None:
    from . import binary_checks, regalloc_checks, schedule_checks, spec_checks

    register_pass("dfg", dfg_checks.run, family="DFG")
    register_pass("schedule", schedule_checks.run, family="SCHED")
    register_pass("regalloc", regalloc_checks.run, family="REG", requires=("program",))
    register_pass("binary", binary_checks.run, family="BIN", requires=("program",))
    register_pass("spec", spec_checks.run, family="SPEC")


_register_builtins()
PASSES.seal()
