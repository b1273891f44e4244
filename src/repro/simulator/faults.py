"""Fault injection for the simulator.

Autonomic managers exist because environments misbehave; the evaluation
of any self-managing model should include faulty regimes.  A
:class:`FaultSchedule` declares time-boxed degradations — a service slows
by a factor during an outage window — and the engine consults it when a
job begins service.  Combined with
:func:`repro.simulator.traces.inject_missing` (absent instrumentation
and failed reports), this covers the three missing/degraded data
sources Section 5.1 lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import SimulationError


@dataclass(frozen=True)
class Degradation:
    """One fault window: ``service`` runs ``factor``× slower in [start, end)."""

    service: str
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise SimulationError(
                f"degradation window [{self.start}, {self.end}) is empty"
            )
        if not self.factor > 0:
            raise SimulationError(f"factor must be > 0, got {self.factor}")


@dataclass
class FaultSchedule:
    """A set of degradations, looked up by service."""

    degradations: tuple = ()
    _by_service: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.degradations = tuple(self.degradations)
        for d in self.degradations:
            if not isinstance(d, Degradation):
                raise SimulationError(f"expected Degradation, got {type(d)!r}")
            self._by_service.setdefault(d.service, []).append(d)

    def for_service(self, service: str) -> tuple:
        """All degradations of ``service``, in declaration order."""
        return tuple(self._by_service.get(service, ()))


def combined_factor(windows: Iterable[Degradation], t: float) -> float:
    """Product of the factors of the ``windows`` active at ``t``.

    Windows are half-open: one is active at ``t == start`` and inactive
    at ``t == end``, so back-to-back windows ``[a, b)`` + ``[b, c)`` never
    double-apply at ``b``; overlapping windows multiply (two concurrent
    faults compound).  Multiplies in the order given, without building
    the active set, so the engine can call it per job on a list it
    resolved once per run.
    """
    factor = 1.0
    for d in windows:
        if d.start <= t < d.end:
            factor *= d.factor
    return factor

