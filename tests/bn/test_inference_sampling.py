"""Sampling-based inference: likelihood weighting and weighted summaries."""

import numpy as np
import pytest

from repro.bn.inference.sampling import likelihood_weighting, weighted_mean
from repro.exceptions import InferenceError


def test_forward_sample_shape(chain_gaussian_net):
    data = chain_gaussian_net.sample(100, 0)
    assert data.n_rows == 100
    assert set(data.columns) == {"a", "b", "c"}


def test_lw_no_evidence_behaves_like_forward(chain_gaussian_net):
    samples, weights = likelihood_weighting(chain_gaussian_net, {}, n=5000, rng=1)
    np.testing.assert_allclose(weights, weights[0])
    assert abs(np.mean(samples["a"]) - 1.0) < 0.05


def test_lw_validation(chain_gaussian_net):
    with pytest.raises(InferenceError):
        likelihood_weighting(chain_gaussian_net, {"zzz": 1.0})
    with pytest.raises(InferenceError):
        likelihood_weighting(chain_gaussian_net, {}, n=0)


def test_lw_evidence_clamps_column(chain_gaussian_net):
    samples, _ = likelihood_weighting(chain_gaussian_net, {"b": 7.0}, n=100, rng=2)
    np.testing.assert_allclose(samples["b"], 7.0)


def test_lw_posterior_matches_exact(chain_gaussian_net):
    from repro.bn.inference.gaussian import conditional_of, joint_gaussian

    names, mean, cov = joint_gaussian(chain_gaussian_net)
    exact_m, exact_v = conditional_of(names, mean, cov, "b", {"c": 5.0})
    samples, weights = likelihood_weighting(
        chain_gaussian_net, {"c": 5.0}, n=300_000, rng=3
    )
    b = np.asarray(samples["b"])
    m = weighted_mean(b, weights)
    v = weighted_mean((b - m) ** 2, weights)
    assert m == pytest.approx(exact_m, abs=0.02)
    assert v == pytest.approx(exact_v, rel=0.1)


def test_weighted_mean():
    values = np.array([1.0, 2.0, 3.0])
    weights = np.array([1.0, 0.0, 1.0])
    assert weighted_mean(values, weights) == pytest.approx(2.0)
    with pytest.raises(InferenceError):
        weighted_mean(values, np.zeros(3))
