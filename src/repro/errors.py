"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at the tool-flow boundary (CLI, notebooks,
benchmark harnesses) while the individual stages raise precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class DFGError(ReproError):
    """Base class for errors in data-flow-graph construction or analysis."""


class DFGValidationError(DFGError):
    """The DFG violates a structural invariant (cycle, dangling edge, ...)."""


class UnknownNodeError(DFGError):
    """A node id was referenced that does not exist in the graph."""


class FrontendError(ReproError):
    """Base class for kernel-capture (frontend) errors."""


class ParseError(FrontendError):
    """The mini-C kernel source could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TraceError(FrontendError):
    """The symbolic tracer encountered an unsupported construct."""


class ScheduleError(ReproError):
    """Base class for scheduling failures."""


class InfeasibleScheduleError(ScheduleError):
    """The kernel cannot be scheduled onto the requested overlay."""


class CodegenError(ReproError):
    """Instruction generation failed (register pressure, encoding, ...)."""


class RegisterAllocationError(CodegenError):
    """The kernel does not fit in the FU register file."""


class EncodingError(CodegenError):
    """An instruction field does not fit its bit allocation."""


class SimulationError(ReproError):
    """The cycle-accurate simulator detected an inconsistency."""


class ConfigurationError(ReproError):
    """An overlay/architecture configuration is invalid."""


class VerificationError(ReproError):
    """A compiled artifact failed the static verification passes.

    Raised by ``Toolchain.compile(..., check=True)`` and by the
    first-compile verification of third-party registered schedulers.  The
    offending :class:`repro.verify.VerifyReport` rides along as
    ``error.report`` so callers can inspect the individual diagnostics.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class KernelError(ReproError):
    """A benchmark kernel is malformed or unknown."""
