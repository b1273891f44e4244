"""Exact Gaussian inference: joint construction and conditioning.

Cross-checked against hand computations and empirical moments of forward
samples; conditioning is checked against the standard bivariate-normal
formulas and scipy.
"""

import numpy as np
import pytest

from repro.bn.cpd import LinearGaussianCPD
from repro.bn.dag import DAG
from repro.bn.inference.gaussian import (
    condition_gaussian,
    conditional_of,
    joint_gaussian,
)
from repro.bn.network import GaussianBayesianNetwork
from repro.exceptions import InferenceError
from tests.bn._gaussian_oracle import joint_gaussian_recursion


def test_joint_gaussian_chain(chain_gaussian_net):
    names, mean, cov = joint_gaussian(chain_gaussian_net)
    i = {n: k for k, n in enumerate(names)}
    # E[a]=1; E[b]=0.5+2*1=2.5; E[c]=-1+1.5*2.5=2.75
    assert mean[i["a"]] == pytest.approx(1.0)
    assert mean[i["b"]] == pytest.approx(2.5)
    assert mean[i["c"]] == pytest.approx(2.75)
    # var(a)=0.5; var(b)=0.3+4*0.5=2.3; var(c)=0.2+2.25*2.3=5.375
    assert cov[i["a"], i["a"]] == pytest.approx(0.5)
    assert cov[i["b"], i["b"]] == pytest.approx(2.3)
    assert cov[i["c"], i["c"]] == pytest.approx(5.375)
    # cov(a,b)=2*0.5=1; cov(a,c)=1.5*cov(a,b)=1.5; cov(b,c)=1.5*var(b)=3.45
    assert cov[i["a"], i["b"]] == pytest.approx(1.0)
    assert cov[i["a"], i["c"]] == pytest.approx(1.5)
    assert cov[i["b"], i["c"]] == pytest.approx(3.45)


def test_joint_matches_empirical_moments(chain_gaussian_net):
    names, mean, cov = joint_gaussian(chain_gaussian_net)
    data = chain_gaussian_net.sample(200_000, rng=11)
    emp = np.cov(np.vstack([data[n] for n in names]))
    np.testing.assert_allclose(emp, cov, atol=0.06)
    for k, n in enumerate(names):
        assert data[n].mean() == pytest.approx(mean[k], abs=0.02)


def test_joint_with_multiple_parents():
    dag = DAG(nodes=["a", "b", "c"], edges=[("a", "c"), ("b", "c")])
    net = GaussianBayesianNetwork(
        dag,
        [
            LinearGaussianCPD("a", 0.0, (), 1.0),
            LinearGaussianCPD("b", 0.0, (), 4.0),
            LinearGaussianCPD("c", 0.0, [1.0, -2.0], 0.5, ("a", "b")),
        ],
    )
    names, mean, cov = joint_gaussian(net)
    i = {n: k for k, n in enumerate(names)}
    assert cov[i["c"], i["c"]] == pytest.approx(0.5 + 1.0 + 4 * 4.0)
    assert cov[i["a"], i["c"]] == pytest.approx(1.0)
    assert cov[i["b"], i["c"]] == pytest.approx(-8.0)
    assert cov[i["a"], i["b"]] == pytest.approx(0.0)


def test_joint_rejects_non_gaussian(ediamond_continuous_model):
    with pytest.raises(InferenceError):
        joint_gaussian(ediamond_continuous_model.network)


def test_condition_bivariate_formula():
    # X ~ N(0,1); Y = X + N(0,1). Conditioning Y | X=x: mean x, var 1.
    names = ["x", "y"]
    mean = np.array([0.0, 0.0])
    cov = np.array([[1.0, 1.0], [1.0, 2.0]])
    post_names, pm, pc = condition_gaussian(names, mean, cov, {"x": 2.0})
    assert post_names == ["y"]
    assert pm[0] == pytest.approx(2.0)
    assert pc[0, 0] == pytest.approx(1.0)
    # And X | Y=y: mean y/2, var 1/2.
    post_names, pm, pc = condition_gaussian(names, mean, cov, {"y": 3.0})
    assert pm[0] == pytest.approx(1.5)
    assert pc[0, 0] == pytest.approx(0.5)


def test_condition_validation():
    names = ["x", "y"]
    mean = np.zeros(2)
    cov = np.eye(2)
    with pytest.raises(InferenceError):
        condition_gaussian(names, mean, cov, {"zzz": 1.0})
    with pytest.raises(InferenceError):
        condition_gaussian(names, mean, cov, {"x": 0.0, "y": 0.0})
    nm, m, c = condition_gaussian(names, mean, cov, {})
    assert nm == names


def test_condition_reduces_variance(chain_gaussian_net):
    names, mean, cov = joint_gaussian(chain_gaussian_net)
    _, _, post_cov = condition_gaussian(names, mean, cov, {"b": 2.5})
    prior_vars = {n: cov[i, i] for i, n in enumerate(names)}
    post_names, _, _ = condition_gaussian(names, mean, cov, {"b": 2.5})
    for i, n in enumerate(post_names):
        assert post_cov[i, i] <= prior_vars[n] + 1e-12


def test_condition_agrees_with_lw_sampling(chain_gaussian_net):
    from repro.bn.inference.sampling import likelihood_weighting, weighted_mean

    names, mean, cov = joint_gaussian(chain_gaussian_net)
    m, v = conditional_of(names, mean, cov, "a", {"c": 4.0})
    samples, weights = likelihood_weighting(
        chain_gaussian_net, {"c": 4.0}, n=200_000, rng=3
    )
    lw_mean = weighted_mean(np.asarray(samples["a"]), weights)
    assert lw_mean == pytest.approx(m, abs=0.02)


def test_conditional_of_errors(chain_gaussian_net):
    names, mean, cov = joint_gaussian(chain_gaussian_net)
    with pytest.raises(InferenceError):
        conditional_of(names, mean, cov, "b", {"b": 1.0})


def _mixed80_network():
    from repro.core.kertbn import build_continuous_kertbn
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    spec = ScenarioSpec("mixed", 80, "gg1", arrivals="diurnal", failure_storm=True)
    env = build_scenario(spec, seed=20260808).env
    model = build_continuous_kertbn(env.workflow, env.simulate(120, rng=3))
    return model.network


@pytest.mark.parametrize("which", ["ediamond", "mixed80"])
def test_joint_solve_matches_per_node_recursion(which, ediamond_continuous_model):
    """The triangular solve against the recursion it replaced."""
    if which == "ediamond":
        net = ediamond_continuous_model.network.service_subnetwork()
    else:
        net = _mixed80_network().service_subnetwork()
    names, mean, cov = joint_gaussian(net)
    ref_names, ref_mean, ref_cov = joint_gaussian_recursion(net)
    assert names == ref_names
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-10)
    atol = 1e-14 * np.abs(ref_cov).max()
    np.testing.assert_allclose(cov, ref_cov, rtol=1e-10, atol=atol)
    np.testing.assert_array_equal(cov, cov.T)
    assert np.count_nonzero(cov) == np.count_nonzero(ref_cov)


def test_joint_of_rejects_cpds_out_of_topological_order(chain_gaussian_net):
    from repro.bn.inference.gaussian import joint_gaussian_of

    cpds = [chain_gaussian_net.cpd(n) for n in ("b", "a", "c")]
    with pytest.raises(InferenceError):
        joint_gaussian_of(cpds)


@pytest.mark.parametrize("which", ["ediamond", "mixed80"])
def test_cached_service_joint_equals_the_subnetwork_joint(
    which, ediamond_continuous_model
):
    """The hybrid network's cached service-layer joint, which every
    continuous consumer reads, is the service subnetwork's joint bit for
    bit; it is built once and cannot be written through."""
    if which == "ediamond":
        net = ediamond_continuous_model.network
    else:
        net = _mixed80_network()
    names, mean, cov = net.service_joint()
    ref_names, ref_mean, ref_cov = joint_gaussian(net.service_subnetwork())
    assert names == ref_names
    assert np.array_equal(mean, ref_mean) and np.array_equal(cov, ref_cov)
    assert net.service_joint() is net.service_joint()
    with pytest.raises(ValueError):
        cov[0, 0] = 0.0
