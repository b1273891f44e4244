"""Service processing-delay distributions.

Real middleware elapsed times are positive and right-skewed; the default
scenarios use :class:`LogNormal` and :class:`Gamma` with an optional
:class:`Shifted` floor for fixed protocol overhead (marshalling, network
round trip).

The scenario corpus adds two *queueing-theoretic* response-time models
whose delays depend on offered utilization (per Sutton & Jordan's
Bayesian inference for queueing networks): :class:`MMk` draws from the
exact M/M/k sojourn-time distribution (Erlang-C waiting probability,
exponential conditional wait) and :class:`GG1` from a G/G/1
approximation whose mean waiting time is Kingman's formula.  Both model
the *queue's own* waiting, so services using them should run with
``queueing=False`` in their :class:`~repro.simulator.service.ServiceSpec`
— the engine's FIFO queue would otherwise double-count the wait.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.exceptions import SimulationError


class DelayDistribution(abc.ABC):
    """A positive random processing delay."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: "int | None" = None):
        """Draw ``size`` delays as an array (one scalar when ``size=None``).

        The simulator engine draws each service's delays in blocks of
        this call.
        """

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected delay (used for utilization sanity checks)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mean={self.mean:.4g})"


class Exponential(DelayDistribution):
    """Memoryless delay with the given mean."""

    def __init__(self, mean: float):
        if not mean > 0:
            raise SimulationError(f"mean must be > 0, got {mean}")
        self._mean = float(mean)

    def sample(self, rng, size=None):
        return rng.exponential(self._mean, size=size)

    @property
    def mean(self) -> float:
        return self._mean


class LogNormal(DelayDistribution):
    """Right-skewed delay; parameterized by median and log-space sigma."""

    def __init__(self, median: float, sigma: float = 0.5):
        if not median > 0:
            raise SimulationError(f"median must be > 0, got {median}")
        if not sigma >= 0:
            raise SimulationError(f"sigma must be >= 0, got {sigma}")
        self.median = float(median)
        self.sigma = float(sigma)

    def sample(self, rng, size=None):
        return self.median * np.exp(rng.normal(0.0, self.sigma, size=size))

    @property
    def mean(self) -> float:
        return self.median * math.exp(0.5 * self.sigma**2)


class Gamma(DelayDistribution):
    """Gamma(shape, scale) delay."""

    def __init__(self, shape: float, scale: float):
        if not shape > 0 or not scale > 0:
            raise SimulationError("shape and scale must be > 0")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size=size)

    @property
    def mean(self) -> float:
        return self.shape * self.scale


class Uniform(DelayDistribution):
    """Uniform delay on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 <= low < high:
            raise SimulationError(f"need 0 <= low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size=size)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


class Deterministic(DelayDistribution):
    """Constant delay (useful in tests and for WAN propagation floors)."""

    def __init__(self, value: float):
        if not value >= 0:
            raise SimulationError(f"value must be >= 0, got {value}")
        self.value = float(value)

    def sample(self, rng, size=None):
        if size is None:
            return np.float64(self.value)
        return np.full(size, self.value)

    @property
    def mean(self) -> float:
        return self.value


def erlang_c(servers: int, utilization: float) -> float:
    """Erlang-C probability that an M/M/k arrival must wait.

    Computed through the numerically stable Erlang-B recursion
    ``B(0) = 1, B(i) = a·B(i-1) / (i + a·B(i-1))`` with offered load
    ``a = k·ρ``, then ``C = B(k) / (1 - ρ·(1 - B(k)))``.
    """
    if servers < 1:
        raise SimulationError(f"servers must be >= 1, got {servers}")
    if not 0.0 < utilization < 1.0:
        raise SimulationError(
            f"utilization must be in (0, 1), got {utilization}"
        )
    a = servers * utilization
    b = 1.0
    for i in range(1, servers + 1):
        b = a * b / (i + a * b)
    return b / (1.0 - utilization * (1.0 - b))


def kingman_waiting_time(
    service_mean: float,
    utilization: float,
    scv_arrival: float = 1.0,
    scv_service: float = 1.0,
) -> float:
    """Kingman's G/G/1 mean waiting-time approximation.

    ``W_q ≈ ρ/(1-ρ) · (c_a² + c_s²)/2 · E[S]`` with the squared
    coefficients of variation of interarrival and service times.
    """
    if not service_mean > 0:
        raise SimulationError(f"service_mean must be > 0, got {service_mean}")
    if not 0.0 < utilization < 1.0:
        raise SimulationError(
            f"utilization must be in (0, 1), got {utilization}"
        )
    if scv_arrival < 0 or scv_service < 0:
        raise SimulationError("squared CVs must be >= 0")
    return (
        utilization
        / (1.0 - utilization)
        * (scv_arrival + scv_service)
        / 2.0
        * service_mean
    )


class MMk(DelayDistribution):
    """Exact M/M/k response (sojourn) time at a given utilization.

    An arrival waits with the Erlang-C probability ``C(k, ρ)``; the
    conditional wait is exponential with rate ``kμ(1-ρ)``; service is
    exponential with mean ``1/μ``.  The mean response time is the
    closed form ``1/μ + C(k, ρ) / (kμ(1-ρ))``, so utilization sweeps
    reproduce textbook hockey-stick response curves.
    """

    def __init__(self, service_mean: float, utilization: float, servers: int = 1):
        if not service_mean > 0:
            raise SimulationError(
                f"service_mean must be > 0, got {service_mean}"
            )
        self.service_mean = float(service_mean)
        self.utilization = float(utilization)
        self.servers = int(servers)
        # Validates utilization/servers as a side effect.
        self.p_wait = erlang_c(self.servers, self.utilization)
        mu = 1.0 / self.service_mean
        self.conditional_wait_mean = 1.0 / (
            self.servers * mu * (1.0 - self.utilization)
        )

    @property
    def arrival_rate(self) -> float:
        """The offered λ implied by ``ρ = λ / (k·μ)``."""
        return self.utilization * self.servers / self.service_mean

    def sample(self, rng, size=None):
        service = rng.exponential(self.service_mean, size=size)
        wait = rng.exponential(self.conditional_wait_mean, size=size)
        queued = rng.random(size=size) < self.p_wait
        return service + np.where(queued, wait, 0.0)

    @property
    def mean(self) -> float:
        return self.service_mean + self.p_wait * self.conditional_wait_mean


class GG1(DelayDistribution):
    """Approximate G/G/1 response time at a given utilization.

    Service times are Gamma with the requested mean and squared CV;
    waiting is zero with probability ``1-ρ`` and exponential with mean
    ``W_q/ρ`` otherwise, so the expected wait equals Kingman's
    approximation and the mean response time is ``E[S] + W_q``.
    """

    def __init__(
        self,
        service_mean: float,
        utilization: float,
        scv_arrival: float = 1.0,
        scv_service: float = 1.0,
    ):
        self.service_mean = float(service_mean)
        self.utilization = float(utilization)
        self.scv_arrival = float(scv_arrival)
        self.scv_service = float(scv_service)
        # Validates every parameter as a side effect.
        self.wait_mean = kingman_waiting_time(
            self.service_mean,
            self.utilization,
            self.scv_arrival,
            self.scv_service,
        )

    def sample(self, rng, size=None):
        if self.scv_service == 0.0:
            service = self.service_mean
        else:
            shape = 1.0 / self.scv_service
            service = rng.gamma(shape, self.service_mean / shape, size=size)
        queued = rng.random(size=size) < self.utilization
        wait = 0.0
        if self.wait_mean > 0.0:
            wait = rng.exponential(self.wait_mean / self.utilization, size=size)
        return service + np.where(queued, wait, 0.0)

    @property
    def mean(self) -> float:
        return self.service_mean + self.wait_mean


class Scaled(DelayDistribution):
    """``factor · base`` — a resource action's effect on a service.

    pAccel's scenario "accelerates" a service by scaling its delay
    distribution (e.g. ``factor=0.9`` after a local resource allocation,
    Section 5.2).
    """

    def __init__(self, base: DelayDistribution, factor: float):
        if not factor > 0:
            raise SimulationError(f"factor must be > 0, got {factor}")
        self.base = base
        self.factor = float(factor)

    def sample(self, rng, size=None):
        return self.factor * self.base.sample(rng, size=size)

    @property
    def mean(self) -> float:
        return self.factor * self.base.mean


class Shifted(DelayDistribution):
    """``offset + base`` — a fixed floor under a random component.

    Models fixed overhead (e.g. the emulated WAN hop to the "remote"
    hospital in the eDiaMoND scenario) plus variable processing.
    """

    def __init__(self, base: DelayDistribution, offset: float):
        if not offset >= 0:
            raise SimulationError(f"offset must be >= 0, got {offset}")
        self.base = base
        self.offset = float(offset)

    def sample(self, rng, size=None):
        return self.offset + self.base.sample(rng, size=size)

    @property
    def mean(self) -> float:
        return self.offset + self.base.mean
