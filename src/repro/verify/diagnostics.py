"""Diagnostic model of the static verification layer.

A :class:`Diagnostic` is one finding of a verification pass: a stable code
(``SCHED003``), a severity, an optional location inside the artifact (stage /
slot / FU / DFG node) and a human-readable message.  A :class:`VerifyReport`
bundles the diagnostics of one artifact together with the identity of what
was verified; both are :class:`~repro.specs.Record` subclasses, so they
round-trip through JSON exactly like the spec objects and verdicts can be
cached, logged, or shipped over the wire by the CLI and the overlay service.

Diagnostic codes are grouped into families by prefix — ``DFG``
(:mod:`repro.verify.dfg_checks`), ``SCHED`` (schedule legality), ``REG``
(register allocation), ``BIN`` (binary consistency) and ``SPEC``
(spec/artifact consistency).  The catalog lives in ``docs/verify.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..specs import Record

_CODE_RE = re.compile(r"^[A-Z]{2,8}[0-9]{3}$")


class Severity(str, Enum):
    """How bad a diagnostic is; only ``ERROR`` makes a report fail."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic(Record):
    """One finding of a verification pass.

    The location fields are all optional — a schedule-level finding names a
    stage (== FU index on the linear overlay) and possibly a slot, a DFG
    finding names a node, a spec finding often names nothing at all.
    """

    code: str
    severity: Severity
    message: str
    #: Name of the pass that produced the finding (``"schedule"``, ...).
    pass_name: str = ""
    #: Pipeline stage / FU index the finding points at.
    stage: Optional[int] = None
    #: Instruction-slot index within the stage.
    slot: Optional[int] = None
    #: DFG node id the finding points at.
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if not _CODE_RE.match(self.code):
            raise ConfigurationError(
                f"diagnostic code {self.code!r} is not of the form PREFIX000"
            )
        if not isinstance(self.severity, Severity):
            object.__setattr__(self, "severity", Severity(self.severity))

    @property
    def family(self) -> str:
        """The code's letter prefix (``"SCHED"`` for ``SCHED003``)."""
        return self.code.rstrip("0123456789")

    @property
    def location(self) -> str:
        """Compact human rendering of the location fields."""
        parts = []
        if self.stage is not None:
            parts.append(f"stage {self.stage}")
        if self.slot is not None:
            parts.append(f"slot {self.slot}")
        if self.node is not None:
            parts.append(f"node {self.node}")
        return ", ".join(parts)

    def __str__(self) -> str:
        where = self.location
        suffix = f" [{where}]" if where else ""
        return f"{self.code} ({self.severity.value}): {self.message}{suffix}"


def pass_error(pass_name: str, code: str, message: str, **location) -> Diagnostic:
    """An ``ERROR`` diagnostic of ``pass_name``, located by ``stage``,
    ``slot`` or ``node``.  Each pass binds its name once
    (``partial(pass_error, "dfg")``) and keeps its code literals at the call
    sites."""
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=message,
        pass_name=pass_name,
        **location,
    )


@dataclass(frozen=True)
class VerifyReport(Record):
    """The verdict of running verification passes over one artifact."""

    kernel: str
    variant: str
    scheduler: str
    #: Names of the passes that actually ran (passes whose inputs are
    #: missing — e.g. binary checks on a schedule-only artifact — are
    #: skipped and do not appear here).
    passes: Tuple[str, ...] = ()
    diagnostics: Tuple[Diagnostic, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        object.__setattr__(
            self, "diagnostics", tuple(Diagnostic.coerce(d) for d in self.diagnostics)
        )

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when no diagnostic has ERROR severity."""
        return not self.errors

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def codes(self) -> Tuple[str, ...]:
        """Sorted unique diagnostic codes present in the report."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"{self.kernel} x {self.variant} x {self.scheduler}: {status} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings, "
            f"{len(self.passes)} passes)"
        )
