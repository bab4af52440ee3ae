"""Scheduler-strategy registry: the pluggable stage of the mapping flow.

The tool flow used to hard-wire one scheduling policy — ``schedule_kernel``
dispatched on :attr:`~repro.overlay.architecture.LinearOverlay.fixed_depth`
between ASAP (:func:`~repro.schedule.linear.schedule_linear`) and the greedy
cluster scheduler (:func:`~repro.schedule.greedy.schedule_fixed_depth`).
This module makes the scheduler a first-class, selectable stage instead:

* a :class:`Scheduler` protocol — any callable taking ``(dfg, overlay)`` and
  returning an :class:`~repro.schedule.types.OverlaySchedule`;
* a process-wide **registry** (:data:`SCHEDULERS`, a
  :class:`repro.registry.Registry`) mapping strategy names to
  :class:`SchedulerStrategy` descriptors;
* the built-in strategies:

  ========= ==============================================================
  name      policy
  ========= ==============================================================
  auto      the historical dispatch (clustered on fixed-depth overlays,
            linear otherwise) — the default everywhere, bit-identical to
            the pre-registry behaviour
  linear    ASAP, one DFG level per FU ([14]/V1/V2 policy)
  clustered iterative greedy clustering for fixed-depth overlays, ASAP
            fallback for shallow kernels (the paper's V3-V5 policy)
  modulo    iterative modulo scheduling lowered onto the linear overlay
            (:func:`~repro.schedule.modulo.schedule_modulo`)
  ========= ==============================================================

Strategy selection travels inside :class:`repro.specs.OverlaySpec`
(``scheduler=`` field), through the compiled-schedule cache key, the
:class:`~repro.api.Toolchain` session, sweep grids and the CLI
(``--scheduler`` / the ``schedulers`` subcommand).  Registering a new
strategy is one :func:`register_scheduler` call (usable as a decorator);
it immediately becomes selectable from every layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from ..dfg.graph import DFG
from ..errors import InfeasibleScheduleError
from ..overlay.architecture import LinearOverlay
from ..registry import Registry, describe
from .types import OverlaySchedule


class Scheduler(Protocol):
    """A scheduling strategy: map one kernel DFG onto one overlay."""

    def __call__(self, dfg: DFG, overlay: LinearOverlay) -> OverlaySchedule:
        """Return a complete :class:`OverlaySchedule` for ``(dfg, overlay)``."""
        ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class SchedulerStrategy:
    """A registered scheduling strategy.

    Attributes
    ----------
    name:
        Registry key (what ``OverlaySpec.scheduler`` and ``--scheduler``
        select).
    func:
        The :class:`Scheduler` callable.
    description:
        One-line summary shown by ``repro-overlay schedulers``.
    folds_levels:
        Whether the strategy can pack several DFG levels into one FU (and
        therefore map kernels deeper than the overlay — requires a
        write-back FU variant).
    """

    name: str
    func: Scheduler
    description: str = ""
    folds_levels: bool = False

    def schedule(self, dfg: DFG, overlay: LinearOverlay) -> OverlaySchedule:
        """Run the strategy (thin alias so a strategy reads like an object)."""
        return self.func(dfg, overlay)

    def as_row(self) -> Dict[str, object]:
        """Flat dict used by the ``schedulers --json`` listing."""
        return {
            "name": self.name,
            "description": self.description,
            "folds_levels": self.folds_levels,
            "default": self.name == DEFAULT_SCHEDULER,
        }


#: The strategy every entry point defaults to (the historical dispatch).
DEFAULT_SCHEDULER = "auto"

#: Every registered strategy, built-ins first.
SCHEDULERS: Registry[SchedulerStrategy] = Registry("scheduler strategy")


def register_scheduler(
    name: str,
    func: Optional[Scheduler] = None,
    *,
    description: str = "",
    folds_levels: bool = False,
    replace: bool = False,
) -> Callable:
    """Register a scheduling strategy under ``name``.

    Usable directly (``register_scheduler("mine", my_func)``) or as a
    decorator::

        @register_scheduler("mine", description="...")
        def my_scheduler(dfg, overlay):
            ...

    ``description`` defaults to the first line of the function's docstring.

    Raises
    ------
    ConfigurationError
        If ``name`` is already registered and ``replace`` is not set, or the
        name is empty.
    """

    def _register(f: Scheduler) -> Scheduler:
        strategy = SchedulerStrategy(
            name=name, func=f, description=describe(f, description), folds_levels=folds_levels
        )
        SCHEDULERS.add(name, strategy, replace)
        return f

    if func is None:
        return _register
    return _register(func)


unregister_scheduler = SCHEDULERS.remove
get_scheduler = SCHEDULERS.get
scheduler_names = SCHEDULERS.names
scheduler_strategies = SCHEDULERS.entries
#: False for third-party strategies: the Toolchain statically verifies their
#: first compiled artifact (see ``docs/verify.md``), a cost the
#: contract-tested built-ins skip.
is_builtin_scheduler = SCHEDULERS.is_builtin


def schedule_with(
    name: str, dfg: DFG, overlay: LinearOverlay
) -> OverlaySchedule:
    """Schedule ``dfg`` onto ``overlay`` with the named strategy.

    Raises
    ------
    InfeasibleScheduleError
        If an output reads a constant.  Constants are configuration data,
        preloaded into the FUs that read them, so no stage emits one to the
        output FIFO.
    """
    strategy = get_scheduler(name)
    for output in dfg.outputs():
        source = dfg.node(output.operands[0])
        if source.is_const:
            raise InfeasibleScheduleError(
                f"kernel {dfg.name!r}: output {output.name} reads constant "
                f"{source.name} (value {source.value}), which no stage emits "
                "to the output FIFO"
            )
    return strategy.schedule(dfg, overlay)


def resolve_strategy_name(name: str, overlay: LinearOverlay) -> str:
    """The concrete strategy a name selects for this overlay.

    ``"auto"`` is a pure dispatch — it always produces exactly what
    ``"clustered"`` (fixed-depth overlays) or ``"linear"`` (critical-path
    overlays) would — so cache keys canonicalise through this function and
    an ``auto`` compile shares its entry with the concrete strategy instead
    of duplicating it.  Every other name (unknown ones fail loudly here)
    maps to itself.
    """
    get_scheduler(name)
    if name != DEFAULT_SCHEDULER:
        return name
    return "clustered" if overlay.fixed_depth else "linear"


# ---------------------------------------------------------------------------
# built-in strategies
# ---------------------------------------------------------------------------
def _register_builtins() -> None:
    """Register the built-in strategies (import deferred to avoid cycles)."""
    from .alap import schedule_alap
    from .greedy import schedule_fixed_depth
    from .linear import schedule_linear
    from .modulo import schedule_modulo

    def _auto(dfg: DFG, overlay: LinearOverlay) -> OverlaySchedule:
        # Defined through resolve_strategy_name so the dispatch and the
        # cache-key canonicalisation can never drift apart.
        return get_scheduler(resolve_strategy_name("auto", overlay)).func(dfg, overlay)

    register_scheduler(
        "auto",
        _auto,
        description=(
            "policy dispatch: clustered on fixed-depth overlays, linear "
            "otherwise (the paper's behaviour; the default)"
        ),
        folds_levels=True,
    )
    register_scheduler(
        "linear",
        schedule_linear,
        description="ASAP scheduling, one DFG level per FU ([14]/V1/V2 policy)",
    )
    register_scheduler(
        "clustered",
        schedule_fixed_depth,
        description=(
            "iterative greedy cluster scheduling for fixed-depth write-back "
            "overlays, ASAP fallback for shallow kernels (V3-V5 policy)"
        ),
        folds_levels=True,
    )
    register_scheduler(
        "modulo",
        schedule_modulo,
        description=(
            "iterative modulo scheduling (Rau-style, [14]'s CGRA baseline) "
            "lowered onto the linear overlay"
        ),
        folds_levels=True,
    )
    register_scheduler(
        "alap",
        schedule_alap,
        description=(
            "as-late-as-possible scheduling: operations sink to the latest "
            "legal stage (balanced ALAP-level clustering on deep write-back "
            "kernels)"
        ),
        folds_levels=True,
    )


_register_builtins()
SCHEDULERS.seal()
