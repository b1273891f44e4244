"""dComp: missing-data compensation (Section 5.1 / Figure 6)."""

import numpy as np
import pytest

from repro.apps.dcomp import DComp
from repro.exceptions import InferenceError


def observed_means(data, exclude, include_response=True):
    cols = [c for c in data.columns if c != exclude]
    if not include_response:
        cols = [c for c in cols if c != "D"]
    return {c: float(np.mean(data[c])) for c in cols}


def test_discrete_posterior_is_pmf(ediamond_discrete_model, ediamond_data):
    _, test = ediamond_data
    dc = DComp(ediamond_discrete_model)
    res = dc.posterior("X4", observed_means(test, "X4"))
    assert res.posterior.sum() == pytest.approx(1.0)
    assert res.prior.sum() == pytest.approx(1.0)
    assert np.all(res.posterior >= 0)
    assert len(res.centers) == len(res.posterior)


def test_discrete_posterior_more_deterministic_than_prior(
    ediamond_discrete_model, ediamond_data
):
    """Figure 6's visual: the posterior is 'more deterministic and
    precise'.  With quantile bins the prior is near-uniform over bins, so
    the right formalization is Shannon entropy over bins decreasing."""
    _, test = ediamond_data
    dc = DComp(ediamond_discrete_model)
    res = dc.posterior("X4", observed_means(test, "X4"))

    def entropy(pmf):
        p = pmf[pmf > 0]
        return float(-(p * np.log(p)).sum())

    assert entropy(res.posterior) < entropy(res.prior)


def test_observed_variable_rejected(ediamond_discrete_model, ediamond_data):
    _, test = ediamond_data
    dc = DComp(ediamond_discrete_model)
    with pytest.raises(InferenceError):
        dc.posterior("X4", {"X4": 1.0})


def test_hybrid_posterior_without_response(ediamond_continuous_model, ediamond_data):
    _, test = ediamond_data
    dc = DComp(ediamond_continuous_model)
    res = dc.posterior("X4", observed_means(test, "X4", include_response=False))
    assert np.isfinite(res.posterior_mean)
    assert res.posterior_std <= res.prior_std + 1e-9
    assert res.posterior.sum() == pytest.approx(1.0)


def test_hybrid_posterior_with_response_narrows_sharply(
    ediamond_continuous_model, ediamond_data
):
    _, test = ediamond_data
    dc = DComp(ediamond_continuous_model)
    without = dc.posterior("X4", observed_means(test, "X4", include_response=False))
    with_d = dc.posterior("X4", observed_means(test, "X4"), rng=0)
    # Conditioning additionally on D must not lose information.
    assert with_d.posterior_std <= without.posterior_std * 1.5
    assert np.isfinite(with_d.posterior_mean)


def test_posterior_tracks_environment_drift(ediamond_continuous_model):
    """The Figure-6 story: prior is stale, observations are current.

    Degrade the remote WAN (X4 and X6 grow); the posterior for X4 given
    current observations of everything else must move from the stale
    prior toward the new actual mean.
    """
    from repro.simulator.scenarios.ediamond import ediamond_scenario

    drifted = ediamond_scenario(wan_delay=0.8)
    new = drifted.simulate(400, rng=17)
    actual = float(np.mean(new["X4"]))
    obs = {c: float(np.mean(new[c])) for c in new.columns if c != "X4"}
    dc = DComp(ediamond_continuous_model)
    res = dc.posterior("X4", obs, rng=1)
    assert res.shift_toward(actual) > 0
    assert abs(res.posterior_mean - actual) < abs(res.prior_mean - actual)


def test_dcomp_requires_supported_network(ediamond_data):
    class FakeModel:
        network = object()
        response = "D"
        discretizer = None

    dc = DComp(FakeModel())
    with pytest.raises(InferenceError):
        dc.posterior("X4", {"X1": 1.0})


def test_gaussian_posterior_is_exact_conditioning(ediamond_data):
    """A continuous NRT-BN is one linear-Gaussian network, so dComp's
    prior and posterior are the marginal and the Schur-complement
    conditional of its joint Gaussian."""
    from repro.bn.inference.gaussian import condition_gaussian, joint_gaussian
    from repro.bn.network import GaussianBayesianNetwork
    from repro.core.nrtbn import build_continuous_nrtbn

    train, test = ediamond_data
    model = build_continuous_nrtbn(train, rng=0)
    assert type(model.network) is GaussianBayesianNetwork
    observed = observed_means(test, "X4")
    res = DComp(model).posterior("X4", observed)

    names, mean, cov = joint_gaussian(model.network)
    post_names, post_mean, post_cov = condition_gaussian(
        names, mean, cov, observed
    )
    i, j = post_names.index("X4"), names.index("X4")
    assert res.posterior_mean == pytest.approx(post_mean[i], abs=1e-12)
    assert res.posterior_std == pytest.approx(np.sqrt(post_cov[i, i]), abs=1e-12)
    assert res.prior_mean == pytest.approx(mean[j], abs=1e-12)
    assert res.prior_std == pytest.approx(np.sqrt(cov[j, j]), abs=1e-12)
    assert res.posterior_std < res.prior_std
    assert res.posterior.sum() == pytest.approx(1.0)
    assert res.prior.sum() == pytest.approx(1.0)
