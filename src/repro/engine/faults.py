"""Deterministic fault injection for the sweep execution layer.

The fault-tolerant runner in :mod:`repro.engine.sweep` promises specific
degradation behaviour — worker death becomes a bounded retry and then a
quarantined error row, a stalled point is killed at its wall-clock timeout,
an interrupted store-backed run resumes exactly — and promises are only as
good as the tests that exercise them.  This module makes the failure modes
reproducible: a :class:`FaultPlan` names grid points and what should go
wrong when they run:

* ``mode="exit"``  — the worker process dies hard (``os._exit``), exactly
  what an OOM kill or a segfaulting native library looks like to the pool;
* ``mode="raise"`` — the point raises :class:`InjectedFault` (a transient
  software failure);
* ``mode="stall"`` — the point sleeps past any reasonable deadline
  (a hung simulation / deadlocked worker).

The plan travels to worker processes through the ``REPRO_FAULT_PLAN``
environment variable (JSON, set by :meth:`FaultPlan.install`), because a
process pool can only be reached environmentally: worker code is the
unmodified :func:`~repro.engine.sweep.run_point`, which calls
:func:`inject_faults` first thing and pays a single ``os.environ`` lookup
when no plan is active.

Rules can be *bounded*: ``times=N`` injects the fault only on the first N
attempts of a matching point, which is how tests prove that retry actually
recovers (fail once, succeed on the retry).  Bounded rules count attempts
across processes via ``O_CREAT | O_EXCL`` marker files in the plan's
``state_dir`` — atomic on every platform, and written *before* the fault
fires so even an ``os._exit`` is counted.

Safety: ``mode="exit"`` refuses to kill the main process (serial execution
would take the whole test run down with it) and degrades to ``raise``
there; worker processes are identified via ``multiprocessing.parent_process``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError, ReproError
from ..specs import Record

#: Environment variable carrying the active plan's JSON to worker processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFault(ReproError):
    """Raised by ``mode="raise"`` rules (and refused ``exit`` rules)."""


@dataclass(frozen=True)
class FaultRule(Record):
    """One failure to inject: *which points* x *what goes wrong* x *how often*.

    ``kernel`` / ``variant`` / ``scheduler`` are matched against the sweep
    point (``None`` matches anything).  ``times=N`` arms the rule for the
    first N attempts of each matching point; ``times=None`` fires on every
    attempt (a permanently poisonous point).
    """

    mode: str = "raise"
    kernel: Optional[str] = None
    variant: Optional[str] = None
    scheduler: Optional[str] = None
    times: Optional[int] = None
    exit_code: int = 13
    stall_s: float = 60.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.mode not in ("exit", "raise", "stall"):
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; available: exit, raise, stall"
            )
        if self.times is not None and self.times < 1:
            raise ConfigurationError("fault rule times must be >= 1 (or None)")

    def matches(self, point) -> bool:
        if self.kernel is not None and point.kernel != self.kernel:
            return False
        if self.variant is not None and point.overlay.variant != self.variant:
            return False
        if self.scheduler is not None and point.overlay.scheduler != self.scheduler:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan(Record):
    """A set of fault rules plus the state directory for bounded rules."""

    rules: Tuple[FaultRule, ...]
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        rules = tuple(FaultRule.coerce(rule) for rule in self.rules)
        object.__setattr__(self, "rules", rules)
        if self.state_dir is None and any(r.times is not None for r in rules):
            raise ConfigurationError(
                "bounded fault rules (times=N) need a state_dir to count "
                "attempts across worker processes"
            )

    # ------------------------------------------------------------------
    @contextmanager
    def install(self):
        """Activate this plan (for this process and future workers).

        Restores the previous environment on exit, so tests cannot leak an
        armed plan into each other.
        """
        previous = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = self.to_json()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = previous


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (the overwhelmingly common case)."""
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    return FaultPlan.from_json(text)


def inject_faults(point) -> None:
    """Fire any armed fault matching ``point`` (called by ``run_point``).

    No-op without an installed plan.  Bounded rules claim one attempt
    marker *before* firing, so a hard exit is still counted and the rule
    disarms after its ``times`` budget even across worker generations.
    """
    plan = active_plan()
    if plan is None:
        return
    for index, rule in enumerate(plan.rules):
        if not rule.matches(point):
            continue
        if rule.times is not None and not _claim_attempt(
            plan.state_dir, _slug(index, point), rule.times
        ):
            continue
        _fire(rule)


def _slug(rule_index: int, point) -> str:
    return (
        f"rule{rule_index}-{point.kernel}-{point.overlay.variant}"
        f"-{point.overlay.scheduler}"
    )


def _claim_attempt(state_dir: str, slug: str, times: int) -> bool:
    """Atomically claim one of ``times`` attempt markers; False when spent."""
    os.makedirs(state_dir, exist_ok=True)
    for attempt in range(times):
        path = os.path.join(state_dir, f"{slug}.{attempt}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


def _fire(rule: FaultRule) -> None:
    if rule.mode == "stall":
        time.sleep(rule.stall_s)
        return
    if rule.mode == "exit" and multiprocessing.parent_process() is not None:
        os._exit(rule.exit_code)
    if rule.mode == "exit":
        # Refused in the main process: killing it would take the caller's
        # whole interpreter down.  Degrade to an exception so the serial
        # retry/quarantine path still exercises the rule.
        raise InjectedFault(
            f"{rule.message} (exit fault refused outside a worker process)"
        )
    raise InjectedFault(rule.message)
