"""Unit tests for the compiled moment plan behind RapidAssessor."""

import numpy as np
import pytest

from repro.apps.assessment import _MomentPlan
from repro.exceptions import InferenceError
from repro.workflow.expressions import Max, Sum, Var


def state_2d(m1=1.0, m2=2.0, v1=1.0, v2=4.0, c=0.5):
    return ["a", "b"], np.array([m1, m2]), np.array([[v1, c], [c, v2]])


def moments(expr, state):
    """Run ``expr``'s plan on one state; return the root's (mean, var)."""
    names, mean, cov = state
    plan = _MomentPlan(expr, names)
    means, covs = plan.run(mean[None], cov[None])
    return means[0, plan.root], covs[0, plan.root, plan.root]


def test_var_lookup():
    s = state_2d()
    m, v = moments(Var("a"), s)
    assert (m, v) == (1.0, 1.0)
    with pytest.raises(InferenceError):
        moments(Var("ghost"), s)


def test_sum_moments_include_covariance():
    s = state_2d()
    m, v = moments(Sum([Var("a"), Var("b")]), s)
    assert m == pytest.approx(3.0)
    assert v == pytest.approx(1.0 + 4.0 + 2 * 0.5)


def test_sum_of_scaled_var_tracks_covariance_with_itself():
    """a + a + a = 3a must have variance (3σ_a)² = 9, not 1 + 1 + 1 = 3."""
    s = state_2d()
    expr = Sum([Var("a"), Var("a"), Var("a")])
    m, v = moments(expr, s)
    assert m == pytest.approx(3.0)
    assert v == pytest.approx(9.0)


def test_nested_max_in_sum_against_monte_carlo():
    rng = np.random.default_rng(0)
    mean = np.array([1.0, 2.0, 1.0])
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.2], [0.0, 0.2, 2.0]])
    expr = Sum([Var("a"), Max([Var("b"), Var("c")])])
    s = (["a", "b", "c"], mean, cov)
    m, v = moments(expr, s)
    draws = rng.multivariate_normal(mean, cov, size=400_000)
    mc = draws[:, 0] + np.maximum(draws[:, 1], draws[:, 2])
    assert m == pytest.approx(float(mc.mean()), abs=0.01)
    assert np.sqrt(v) == pytest.approx(float(mc.std()), rel=0.03)
