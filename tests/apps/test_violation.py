"""Threshold-violation probabilities and ε (Eq. 5 / Figure 8)."""

import numpy as np
import pytest

from repro.apps.violation import (
    default_thresholds,
    relative_violation_error,
    tail_probability_from_pmf,
    violation_curve,
)
from repro.exceptions import InferenceError


def test_tail_probability_exact_cases():
    pmf = np.array([0.25, 0.25, 0.5])
    edges = np.array([0.0, 1.0, 2.0, 3.0])
    assert tail_probability_from_pmf(pmf, edges, -1.0) == pytest.approx(1.0)
    assert tail_probability_from_pmf(pmf, edges, 3.5) == 0.0
    assert tail_probability_from_pmf(pmf, edges, 1.0) == pytest.approx(0.75)
    # Mid-bin interpolation: half of bin 0's mass remains above 0.5.
    assert tail_probability_from_pmf(pmf, edges, 0.5) == pytest.approx(0.875)


def test_tail_probability_is_at_most_one():
    counts = np.array([1.0, 6.0, 3.0, 3.0])
    pmf = counts / counts.sum()  # sums to 1 + 1 ulp
    edges = np.arange(5.0)
    assert tail_probability_from_pmf(pmf, edges, -1.0) == 1.0
    assert tail_probability_from_pmf(pmf, edges, 1e-12) <= 1.0


def test_tail_probability_validation():
    with pytest.raises(InferenceError):
        tail_probability_from_pmf(np.ones(3) / 3, np.array([0.0, 1.0]), 0.5)


def test_tail_probability_matches_sampling():
    rng = np.random.default_rng(0)
    samples = rng.normal(5, 2, size=200_000)
    edges = np.linspace(samples.min(), samples.max() + 1e-9, 60)
    counts, _ = np.histogram(samples, bins=edges)
    pmf = counts / counts.sum()
    for h in (3.0, 5.0, 7.5):
        approx = tail_probability_from_pmf(pmf, edges, h)
        empirical = np.mean(samples > h)
        assert approx == pytest.approx(empirical, abs=0.01)


def test_relative_violation_error_eq5():
    assert relative_violation_error(0.2, 0.1) == pytest.approx(1.0)
    assert relative_violation_error(0.1, 0.1) == 0.0
    assert relative_violation_error(0.1, 0.0) == float("inf")
    assert relative_violation_error(0.0, 0.0) == 0.0
    with pytest.raises(InferenceError):
        relative_violation_error(-0.1, 0.5)


def test_violation_curve_rows():
    rng = np.random.default_rng(1)
    samples = rng.exponential(2.0, size=10_000)
    rows = violation_curve(
        lambda h: float(np.exp(-h / 2.0)),  # true exponential tail
        samples,
        thresholds=[0.5, 1.0, 2.0],
    )
    assert len(rows) == 3
    for r in rows:
        assert set(r) == {"threshold", "p_real", "p_model", "epsilon"}
        assert r["epsilon"] < 0.1  # exact model vs empirical


def test_default_thresholds_properties():
    rng = np.random.default_rng(2)
    samples = rng.normal(10, 1, size=5000)
    hs = default_thresholds(samples)
    assert len(hs) == 6
    assert hs == sorted(hs)
    # Every threshold keeps P_real strictly positive and below 1.
    for h in hs:
        p = np.mean(samples > h)
        assert 0.05 < p < 0.95
