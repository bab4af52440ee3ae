"""One registry class behind every plug-in point.

Scheduling strategies (:mod:`repro.schedule.registry`), performance models
(:mod:`repro.metrics.models`), verification passes
(:mod:`repro.verify.engine`) and seeded verifier defects
(:mod:`repro.verify.mutate`) each live in a :class:`Registry`: a table of
named entries in registration order, whose built-ins are sealed against
removal.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Generic, List, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")


def describe(obj: object, description: str = "") -> str:
    """``description``, or else the first line of ``obj``'s docstring."""
    if description:
        return description
    lines = (getattr(obj, "__doc__", None) or "").strip().splitlines()
    return lines[0] if lines else ""


class Registry(Generic[T]):
    """Named entries of one plug-in ``kind``, kept in registration order.

    One re-entrant lock serialises every lookup and mutation, so a server
    worker racing a registration never observes a half-updated table
    (check-then-insert is two steps, and listings snapshot under the lock).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        self._builtins: FrozenSet[str] = frozenset()
        self._lock = threading.RLock()

    def add(self, name: str, entry: T, replace: bool = False) -> T:
        """Register ``entry`` under ``name``; a taken name needs ``replace``."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"{self.kind} names must be non-empty strings")
        with self._lock:
            if name in self._entries and not replace:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered "
                    "(pass replace=True to override it)"
                )
            self._entries[name] = entry
        return entry

    def get(self, name: str) -> T:
        """The entry registered under ``name``; unknown names list the others."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            )
        return entry

    def remove(self, name: str) -> None:
        """Drop a registered entry (a no-op for unknown names)."""
        if name in self._builtins:
            raise ConfigurationError(
                f"the built-in {self.kind} {name!r} cannot be unregistered"
            )
        with self._lock:
            self._entries.pop(name, None)

    def seal(self) -> None:
        """Mark every entry registered so far as a built-in."""
        with self._lock:
            self._builtins = frozenset(self._entries)

    def is_builtin(self, name: str) -> bool:
        return name in self._builtins

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def entries(self) -> List[T]:
        with self._lock:
            return list(self._entries.values())
