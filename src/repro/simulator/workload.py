"""Workload (arrival-process) generators.

The monitored transaction stream is driven by open workloads: requests
arrive regardless of completions.  Arrivals are Poisson, bursty
(Markov-modulated) or diurnal (sinusoidally rate-modulated).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.rng import ensure_rng


class Workload(abc.ABC):
    """Generates sorted arrival times."""

    @abc.abstractmethod
    def arrival_times(self, n: int, rng=None) -> np.ndarray:
        """Return ``n`` sorted nonnegative arrival times."""


class OpenWorkload(Workload):
    """Poisson arrivals at ``rate`` requests per second."""

    def __init__(self, rate: float):
        if not rate > 0:
            raise SimulationError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    def arrival_times(self, n: int, rng=None) -> np.ndarray:
        if n < 1:
            raise SimulationError(f"need n >= 1, got {n}")
        rng = ensure_rng(rng)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        return np.cumsum(gaps)


class BurstyWorkload(Workload):
    """Two-state Markov-modulated Poisson arrivals.

    Section 3.2's dependency story starts with "a burst in i's workload";
    this process produces such bursts: the arrival rate alternates between
    a ``base_rate`` phase and a ``burst_rate`` phase with exponentially
    distributed phase durations.
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        mean_base_duration: float,
        mean_burst_duration: float,
    ):
        if not 0 < base_rate < burst_rate:
            raise SimulationError("need 0 < base_rate < burst_rate")
        if not mean_base_duration > 0 or not mean_burst_duration > 0:
            raise SimulationError("phase durations must be > 0")
        self.base_rate = float(base_rate)
        self.burst_rate = float(burst_rate)
        self.mean_base_duration = float(mean_base_duration)
        self.mean_burst_duration = float(mean_burst_duration)

    def arrival_times(self, n: int, rng=None) -> np.ndarray:
        if n < 1:
            raise SimulationError(f"need n >= 1, got {n}")
        rng = ensure_rng(rng)
        times: list[float] = []
        t = 0.0
        bursting = False
        phase_end = rng.exponential(self.mean_base_duration)
        while len(times) < n:
            rate = self.burst_rate if bursting else self.base_rate
            t_next = t + rng.exponential(1.0 / rate)
            if t_next >= phase_end:
                # Phase flips; restart the draw from the boundary (the
                # exponential's memorylessness makes this exact).
                t = phase_end
                bursting = not bursting
                phase_end = t + rng.exponential(
                    self.mean_burst_duration if bursting else self.mean_base_duration
                )
                continue
            t = t_next
            times.append(t)
        return np.asarray(times)


class DiurnalWorkload(Workload):
    """Sinusoidally rate-modulated Poisson arrivals (day/night cycles).

    A nonhomogeneous Poisson process with rate
    ``λ(t) = base_rate · (1 + amplitude · sin(2πt/period + phase))``,
    generated by thinning against the peak rate.  The corpus uses it for
    the diurnal-load regimes the paper's fixed arrival process never
    exercises.
    """

    def __init__(
        self,
        base_rate: float,
        amplitude: float = 0.5,
        period: float = 600.0,
        phase: float = 0.0,
    ):
        if not base_rate > 0:
            raise SimulationError(f"base_rate must be > 0, got {base_rate}")
        if not 0.0 <= amplitude < 1.0:
            raise SimulationError(
                f"amplitude must be in [0, 1), got {amplitude}"
            )
        if not period > 0:
            raise SimulationError(f"period must be > 0, got {period}")
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def rate_at(self, t: float) -> float:
        return self.base_rate * (
            1.0
            + self.amplitude * np.sin(2.0 * np.pi * t / self.period + self.phase)
        )

    def arrival_times(self, n: int, rng=None) -> np.ndarray:
        if n < 1:
            raise SimulationError(f"need n >= 1, got {n}")
        rng = ensure_rng(rng)
        peak = self.base_rate * (1.0 + self.amplitude)
        times: list[float] = []
        t = 0.0
        while len(times) < n:
            t += rng.exponential(1.0 / peak)
            if rng.random() < self.rate_at(t) / peak:
                times.append(t)
        return np.asarray(times)
