"""Delay distributions: positivity, means, validation, queueing theory."""

import math

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulator.delays import (
    GG1,
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    MMk,
    Shifted,
    Uniform,
    erlang_c,
    kingman_waiting_time,
)

ALL = [
    Exponential(0.5),
    LogNormal(0.2, 0.4),
    Gamma(2.0, 0.1),
    Uniform(0.1, 0.3),
    Deterministic(0.25),
    Shifted(Exponential(0.1), 0.2),
    MMk(0.2, 0.6, servers=2),
    GG1(0.2, 0.6, scv_arrival=1.5, scv_service=0.8),
]


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_samples_nonnegative_and_mean_close(dist, rng):
    samples = dist.sample(rng, size=50_000)
    assert np.all(samples >= 0)
    assert np.mean(samples) == pytest.approx(dist.mean, rel=0.05)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
def test_scalar_sample(dist, rng):
    v = dist.sample(rng)
    assert isinstance(v, float)
    assert v >= 0


def test_validation():
    with pytest.raises(SimulationError):
        Exponential(0.0)
    with pytest.raises(SimulationError):
        LogNormal(-1.0)
    with pytest.raises(SimulationError):
        LogNormal(1.0, -0.1)
    with pytest.raises(SimulationError):
        Gamma(0, 1)
    with pytest.raises(SimulationError):
        Uniform(0.5, 0.2)
    with pytest.raises(SimulationError):
        Deterministic(-1)
    with pytest.raises(SimulationError):
        Shifted(Exponential(1.0), -0.5)


def test_lognormal_mean_formula():
    d = LogNormal(1.0, 0.5)
    assert d.mean == pytest.approx(np.exp(0.125))


def test_shifted_floor():
    d = Shifted(Exponential(0.1), 0.5)
    samples = d.sample(np.random.default_rng(0), size=1000)
    assert samples.min() >= 0.5


# --------------------------------------------------------------------- #
# Queueing-theoretic distributions vs textbook closed forms
# --------------------------------------------------------------------- #

UTILIZATIONS = (0.3, 0.6, 0.9)


def _erlang_c_direct(k: int, rho: float) -> float:
    """Erlang C via the factorial sum — independent of the Erlang-B
    recursion the implementation uses."""
    a = k * rho
    top = a**k / math.factorial(k) / (1.0 - rho)
    bottom = sum(a**i / math.factorial(i) for i in range(k)) + top
    return top / bottom


@pytest.mark.parametrize("rho", UTILIZATIONS)
@pytest.mark.parametrize("k", (1, 2, 4))
def test_erlang_c_matches_direct_sum(k, rho):
    assert erlang_c(k, rho) == pytest.approx(_erlang_c_direct(k, rho), rel=1e-12)


@pytest.mark.parametrize("rho", UTILIZATIONS)
@pytest.mark.parametrize("k", (1, 2, 4))
def test_mmk_sampled_mean_matches_erlang_c(k, rho):
    """Sampled M/M/k response means must land on the closed form
    ``1/μ + C(k,ρ)/(kμ(1-ρ))`` within 5% at every utilization."""
    s = 0.2
    d = MMk(s, rho, servers=k)
    mu = 1.0 / s
    closed = s + _erlang_c_direct(k, rho) / (k * mu * (1.0 - rho))
    assert d.mean == pytest.approx(closed, rel=1e-12)
    samples = d.sample(np.random.default_rng(1234 + k), size=200_000)
    assert np.all(samples > 0)
    assert samples.mean() == pytest.approx(closed, rel=0.05)


def test_mmk_hockey_stick():
    """Response time must explode as ρ → 1 (textbook hockey stick)."""
    means = [MMk(0.2, rho, servers=2).mean for rho in (0.3, 0.6, 0.9, 0.98)]
    assert means == sorted(means)
    assert means[-1] > 5 * means[0]


@pytest.mark.parametrize("rho", UTILIZATIONS)
def test_gg1_sampled_mean_matches_kingman(rho):
    """Sampled G/G/1 response means must match ``E[S] + W_q`` with
    Kingman's ``W_q = ρ/(1-ρ)·(c_a²+c_s²)/2·E[S]`` within 5%."""
    s, ca2, cs2 = 0.2, 1.5, 0.8
    d = GG1(s, rho, scv_arrival=ca2, scv_service=cs2)
    closed = s + rho / (1.0 - rho) * (ca2 + cs2) / 2.0 * s
    assert d.mean == pytest.approx(closed, rel=1e-12)
    samples = d.sample(np.random.default_rng(42), size=200_000)
    assert np.all(samples > 0)
    assert samples.mean() == pytest.approx(closed, rel=0.05)


def test_gg1_mm1_special_case():
    """With c_a² = c_s² = 1 Kingman is exact: W_q = ρ/(1-ρ)·E[S]."""
    d = GG1(0.1, 0.5)
    mm1_response = 0.1 / (1.0 - 0.5)
    assert d.mean == pytest.approx(mm1_response)


def test_gg1_deterministic_service():
    d = GG1(0.2, 0.6, scv_service=0.0)
    samples = d.sample(np.random.default_rng(7), size=50_000)
    # Service contributes no variance; minimum is the bare service time.
    assert samples.min() == pytest.approx(0.2, rel=1e-6)


def test_queueing_scalar_samples():
    rng = np.random.default_rng(3)
    assert isinstance(MMk(0.2, 0.6, servers=2).sample(rng), float)
    assert isinstance(GG1(0.2, 0.6).sample(rng), float)
    assert isinstance(GG1(0.2, 0.6, scv_service=0.0).sample(rng), float)


def test_queueing_validation():
    with pytest.raises(SimulationError):
        erlang_c(0, 0.5)
    with pytest.raises(SimulationError):
        erlang_c(2, 1.0)
    with pytest.raises(SimulationError):
        kingman_waiting_time(0.0, 0.5)
    with pytest.raises(SimulationError):
        kingman_waiting_time(1.0, 0.5, scv_arrival=-0.1)
    with pytest.raises(SimulationError):
        MMk(0.2, 0.0)
    with pytest.raises(SimulationError):
        MMk(0.2, 0.6, servers=0)
    with pytest.raises(SimulationError):
        MMk(-0.1, 0.6)
    with pytest.raises(SimulationError):
        GG1(0.2, 1.2)
    with pytest.raises(SimulationError):
        GG1(0.2, 0.6, scv_service=-1.0)
