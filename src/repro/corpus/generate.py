"""Seeded scenario generation: spec → ready-to-simulate environment.

:func:`build_scenario` turns a :class:`~repro.corpus.spec.ScenarioSpec`
into a fully assembled
:class:`~repro.simulator.environment.SimulatedEnvironment` — random
Cardoso topology, per-service delay processes, arrival modulation,
optional failure-storm windows — and derives the domain knowledge the
KERT-BN consumes (the ``f(X)`` expression and the network structure)
automatically from the sampled workflow.

Everything is keyed off ``(spec, seed)`` through one
:class:`numpy.random.SeedSequence`, so regeneration is bit-identical
(the determinism property test in ``tests/corpus`` holds the line).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.bn.dag import DAG
from repro.corpus.spec import FAMILY_KNOBS, ScenarioSpec
from repro.simulator.delays import GG1, DelayDistribution, LogNormal, MMk
from repro.simulator.environment import SimulatedEnvironment
from repro.simulator.faults import Degradation, FaultSchedule
from repro.simulator.service import Host, ServiceSpec
from repro.simulator.workload import (
    BurstyWorkload,
    DiurnalWorkload,
    OpenWorkload,
    Workload,
)
from repro.workflow.generator import random_workflow
from repro.workflow.response_time import ResponseTimeFunction

#: Per-service mean processing-delay range (log-uniform), seconds.
SERVICE_MEAN_RANGE = (0.05, 0.30)
#: Baseline arrival rate (requests/second) for every arrival regime.
BASE_ARRIVAL_RATE = 0.3
#: Simulated-time horizon (seconds) failure-storm windows are placed in.
STORM_HORIZON = 600.0


@dataclass
class GeneratedScenario:
    """One realized corpus scenario plus its derived domain knowledge."""

    spec: ScenarioSpec
    seed: int
    env: SimulatedEnvironment
    f: ResponseTimeFunction
    structure: DAG


def scenario_rng(spec: ScenarioSpec, seed: int) -> np.random.Generator:
    """The one RNG all of ``(spec, seed)``'s randomness flows from."""
    return np.random.default_rng([seed, zlib.crc32(spec.name.encode())])


def _delay_for(
    spec: ScenarioSpec, mean: float, rng: np.random.Generator
) -> tuple[DelayDistribution, bool]:
    """One service's delay process and whether the engine should queue it.

    The queueing-theoretic regimes model their own waiting time, so the
    engine's FIFO queue is disabled for them (``queueing=False``) to
    avoid double-counting the wait.
    """
    if spec.delay == "lognormal":
        sigma = float(rng.uniform(0.25, 0.55))
        return LogNormal(mean, sigma), True
    utilization = float(
        np.clip(spec.utilization + rng.uniform(-0.1, 0.1), 0.05, 0.95)
    )
    if spec.delay == "mmk":
        servers = int(rng.choice((1, 2, 4)))
        return MMk(mean, utilization, servers=servers), False
    scv_a = float(rng.uniform(0.5, 2.5))
    scv_s = float(rng.uniform(0.5, 2.5))
    return GG1(mean, utilization, scv_arrival=scv_a, scv_service=scv_s), False


def _workload_for(spec: ScenarioSpec) -> Workload:
    if spec.arrivals == "steady":
        return OpenWorkload(rate=BASE_ARRIVAL_RATE)
    if spec.arrivals == "bursty":
        return BurstyWorkload(
            base_rate=BASE_ARRIVAL_RATE * 0.75,
            burst_rate=BASE_ARRIVAL_RATE * 3.0,
            mean_base_duration=80.0,
            mean_burst_duration=20.0,
        )
    return DiurnalWorkload(
        base_rate=BASE_ARRIVAL_RATE, amplitude=0.6, period=240.0
    )


def failure_storm(
    services: tuple[str, ...],
    rng: np.random.Generator,
    n_windows: int = 3,
    horizon: float = STORM_HORIZON,
) -> FaultSchedule:
    """A storm of time-boxed slowdowns hitting random services.

    Each window degrades one service by a 2–6× factor for 2–8% of the
    horizon — the "failure storm" regime the autonomic manager is meant
    to survive, reused from :mod:`repro.simulator.faults`.
    """
    windows = []
    for _ in range(n_windows):
        service = str(rng.choice(list(services)))
        start = float(rng.uniform(0.0, 0.8 * horizon))
        duration = float(rng.uniform(0.02, 0.08) * horizon)
        factor = float(rng.uniform(2.0, 6.0))
        windows.append(Degradation(service, start, start + duration, factor))
    return FaultSchedule(tuple(windows))


def build_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    services_per_host: int = 3,
    contention: float = 0.05,
    measurement_noise: float = 0.02,
) -> GeneratedScenario:
    """Realize one corpus cell deterministically from ``(spec, seed)``."""
    rng = scenario_rng(spec, seed)
    knobs = FAMILY_KNOBS[spec.family]
    workflow = random_workflow(
        spec.n_services,
        rng,
        p_parallel=knobs["p_parallel"],
        p_choice=knobs["p_choice"],
        p_loop=knobs["p_loop"],
    )
    names = workflow.services()

    n_hosts = max(1, int(np.ceil(spec.n_services / services_per_host)))
    hosts = tuple(
        Host(f"host{h}", contention=contention) for h in range(n_hosts)
    )
    placements = rng.integers(0, n_hosts, size=spec.n_services)
    lo, hi = SERVICE_MEAN_RANGE
    means = np.exp(rng.uniform(np.log(lo), np.log(hi), size=spec.n_services))
    couplings = rng.uniform(0.05, 0.30, size=spec.n_services)
    sensitivities = rng.uniform(0.0, 1.0, size=spec.n_services)

    services = []
    for i, name in enumerate(names):
        delay, queueing = _delay_for(spec, float(means[i]), rng)
        services.append(
            ServiceSpec(
                name=name,
                delay=delay,
                host=f"host{int(placements[i])}",
                demand_sensitivity=float(sensitivities[i]),
                upstream_coupling=float(couplings[i]),
                queueing=queueing,
            )
        )

    faults = (
        failure_storm(names, rng) if spec.failure_storm else None
    )
    env = SimulatedEnvironment(
        workflow=workflow,
        services=tuple(services),
        hosts=hosts,
        workload=_workload_for(spec),
        demand_sigma=0.25,
        measurement_noise=measurement_noise,
        faults=faults,
    )
    return GeneratedScenario(
        spec=spec,
        seed=seed,
        env=env,
        f=env.response_time_function(),
        structure=env.knowledge_structure(),
    )
