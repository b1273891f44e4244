"""Fault injection for the simulator.

Autonomic managers exist because environments misbehave; the evaluation
of any self-managing model should include faulty regimes.  A
:class:`FaultSchedule` declares time-boxed degradations — a service slows
by a factor during an outage window — and the engine consults it when a
job begins service.  Combined with the monitoring layer's
``reporting_loss`` and :func:`repro.simulator.traces.inject_missing`,
this covers the three missing/again-degraded data sources Section 5.1
lists.
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

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass
class FaultSchedule:
    """A set of degradations, queryable by (service, time)."""

    degradations: tuple = ()
    _by_service: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.degradations = tuple(self.degradations)
        for d in self.degradations:
            if not isinstance(d, Degradation):
                raise SimulationError(f"expected Degradation, got {type(d)!r}")
            self._by_service.setdefault(d.service, []).append(d)

    def active(self, service: str, t: float) -> tuple:
        """The degradations of ``service`` active at time ``t``.

        Window semantics are half-open: a degradation is active at
        ``t == start`` and inactive at ``t == end``, so back-to-back
        windows ``[a, b)`` + ``[b, c)`` never double-apply at ``b``.
        """
        return tuple(
            d for d in self._by_service.get(service, ()) if d.active_at(t)
        )

    def for_service(self, service: str) -> tuple:
        """All degradations of ``service``, in declaration order."""
        return tuple(self._by_service.get(service, ()))

    def factor_at(self, service: str, t: float) -> float:
        """Combined slowdown factor for ``service`` at simulation time ``t``.

        Overlapping windows multiply (two concurrent faults compound).
        """
        return combined_factor(self._by_service.get(service, ()), t)

    @property
    def services(self) -> tuple[str, ...]:
        return tuple(self._by_service)

    @classmethod
    def outage(
        cls, service: str, start: float, duration: float, factor: float = 5.0
    ) -> "FaultSchedule":
        """Convenience single-window schedule."""
        return cls((Degradation(service, start, start + duration, factor),))

    def merged_with(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.degradations + other.degradations)


def combined_factor(windows: Iterable[Degradation], t: float) -> float:
    """Product of the factors of the ``windows`` active at ``t``.

    Multiplies in the order given, without building the active set, so
    the engine can call it per job on a list it resolved once per run.
    """
    factor = 1.0
    for d in windows:
        if d.start <= t < d.end:
            factor *= d.factor
    return factor


def degradation_windows(
    schedule: FaultSchedule, services: Iterable[str]
) -> dict[str, list[tuple[float, float]]]:
    """Per-service fault windows (for plotting / assertions in tests)."""
    out: dict[str, list[tuple[float, float]]] = {str(s): [] for s in services}
    for d in schedule.degradations:
        if d.service in out:
            out[d.service].append((d.start, d.end))
    return out
