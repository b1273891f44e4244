"""Service and host descriptions.

A :class:`ServiceSpec` is the static description of one middleware
component; a :class:`Host` is the machine it runs on.  The dynamic state
(queue availability, busy counters) lives in the engine so specs can be
reused across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.simulator.delays import DelayDistribution


@dataclass
class Host:
    """A machine hosting one or more services.

    ``contention`` scales the delay inflation per concurrently executing
    job on the same host: a job starting while ``k`` other jobs run on
    the host is slowed by ``1 + contention·k``.  This realizes the
    paper's *resource sharing* dependency source (Section 3.2) — services
    co-located on a host become statistically coupled.
    """

    name: str
    contention: float = 0.0
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.contention < 0:
            raise SimulationError(f"contention must be >= 0, got {self.contention}")
        if not self.speed > 0:
            raise SimulationError(f"speed must be > 0, got {self.speed}")


@dataclass
class ServiceSpec:
    """Static description of one service.

    Parameters
    ----------
    name:
        Unique service name — matches the workflow Activity and the
        KERT-BN node.
    delay:
        Base processing-delay distribution ("randomly generate a
        processing delay upon receiving calls" — Section 4.1).
    host:
        Host name for placement / contention.
    demand_sensitivity:
        Exponent on the per-request demand factor; nonzero values couple
        services through request size (heavy mammograms are slow at every
        hop).
    upstream_coupling:
        Coefficient on the immediate upstream service's elapsed time —
        the direct workflow dependency of Section 3.2 ("a burst in i's
        workload … may also be reflected by change in j's elapsed time").
    queueing:
        Whether the service is a FIFO single server (waiting time counts
        toward elapsed time, as middleware monitoring points would see).
    """

    name: str
    delay: DelayDistribution
    host: str = "default"
    demand_sensitivity: float = 0.0
    upstream_coupling: float = 0.0
    queueing: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("service name must be non-empty")
        if self.demand_sensitivity < 0:
            raise SimulationError("demand_sensitivity must be >= 0")
        if self.upstream_coupling < 0:
            raise SimulationError("upstream_coupling must be >= 0")


@dataclass
class _ServiceState:
    """Engine-private dynamic state of one service."""

    spec: ServiceSpec
    busy_time: float = 0.0

    def reset(self) -> None:
        self.busy_time = 0.0


@dataclass
class _HostState:
    """Engine-private dynamic state of one host."""

    host: Host
    n_running: int = 0

    def reset(self) -> None:
        self.n_running = 0
