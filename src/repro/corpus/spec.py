"""Scenario-corpus axes: what one corpus cell varies.

A :class:`ScenarioSpec` pins one point in the (topology family ×
environment size × delay regime) space the nightly benchmark matrix
sweeps, plus the arrival-modulation and failure-storm riders.  Specs are
frozen and hashable so the same spec + seed always regenerates the same
environment (the corpus determinism contract, property-tested in
``tests/corpus``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError

#: Construct-probability knobs handed to
#: :func:`repro.workflow.generator.random_workflow` per topology family.
FAMILY_KNOBS: dict[str, dict[str, float]] = {
    "sequence": {"p_parallel": 0.0, "p_choice": 0.0, "p_loop": 0.0},
    "parallel": {"p_parallel": 0.5, "p_choice": 0.0, "p_loop": 0.0},
    "choice": {"p_parallel": 0.0, "p_choice": 0.45, "p_loop": 0.0},
    "loop": {"p_parallel": 0.0, "p_choice": 0.0, "p_loop": 0.3},
    "mixed": {"p_parallel": 0.3, "p_choice": 0.2, "p_loop": 0.15},
}

DELAY_REGIMES = ("lognormal", "mmk", "gg1")
ARRIVAL_REGIMES = ("steady", "bursty", "diurnal")

#: Default arrival modulation per delay regime: the queueing-theoretic
#: regimes get the non-stationary arrival processes that motivate them.
ARRIVALS_FOR_DELAY = {"lognormal": "steady", "mmk": "bursty", "gg1": "diurnal"}

MIN_SERVICES = 1
MAX_SERVICES = 500


@dataclass(frozen=True)
class ScenarioSpec:
    """One corpus cell: topology family, size, delay regime, riders."""

    family: str
    n_services: int
    delay: str
    arrivals: str = "steady"
    failure_storm: bool = False
    utilization: float = 0.6

    def __post_init__(self) -> None:
        if self.family not in FAMILY_KNOBS:
            raise SimulationError(
                f"family must be one of {sorted(FAMILY_KNOBS)}, "
                f"got {self.family!r}"
            )
        if not MIN_SERVICES <= self.n_services <= MAX_SERVICES:
            raise SimulationError(
                f"n_services must be in [{MIN_SERVICES}, {MAX_SERVICES}], "
                f"got {self.n_services}"
            )
        if self.delay not in DELAY_REGIMES:
            raise SimulationError(
                f"delay must be one of {DELAY_REGIMES}, got {self.delay!r}"
            )
        if self.arrivals not in ARRIVAL_REGIMES:
            raise SimulationError(
                f"arrivals must be one of {ARRIVAL_REGIMES}, "
                f"got {self.arrivals!r}"
            )
        if not 0.0 < self.utilization < 1.0:
            raise SimulationError(
                f"utilization must be in (0, 1), got {self.utilization}"
            )

    @property
    def name(self) -> str:
        """Stable cell id, e.g. ``mixed_n10_mmk``."""
        return f"{self.family}_n{self.n_services}_{self.delay}"


def default_corpus(
    families: tuple[str, ...] = ("sequence", "parallel", "mixed"),
    sizes: tuple[int, ...] = (10, 40),
    delays: tuple[str, ...] = DELAY_REGIMES,
) -> tuple[ScenarioSpec, ...]:
    """The canonical (family × size × delay-regime) benchmark matrix.

    Arrival modulation follows the delay regime
    (:data:`ARRIVALS_FOR_DELAY`) and the ``mixed`` family — the one
    exercising choice/loop constructs — additionally runs under failure
    storms, so every corpus sweep covers bursty, diurnal and faulty
    operation without multiplying the cell count.
    """
    specs = []
    for family in families:
        for n in sizes:
            for delay in delays:
                specs.append(
                    ScenarioSpec(
                        family=family,
                        n_services=n,
                        delay=delay,
                        arrivals=ARRIVALS_FOR_DELAY[delay],
                        failure_storm=(family == "mixed"),
                    )
                )
    return tuple(specs)
