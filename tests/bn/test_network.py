"""Unit tests for the network containers."""

import numpy as np
import pytest

from repro.bn.cpd import (
    LinearGaussianCPD,
    NoisyDeterministicCPD,
    TabularCPD,
)
from repro.bn.dag import DAG
from repro.bn.network import (
    BayesianNetwork,
    DiscreteBayesianNetwork,
    GaussianBayesianNetwork,
    HybridResponseNetwork,
)
from repro.exceptions import CPDError, InferenceError
from repro.workflow.expressions import Sum, Var


def test_network_validation_missing_cpd():
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    with pytest.raises(CPDError):
        BayesianNetwork(dag, [LinearGaussianCPD("a", 0.0, (), 1.0)])


def test_network_validation_extra_cpd():
    dag = DAG(nodes=["a"])
    with pytest.raises(CPDError):
        BayesianNetwork(
            dag,
            [LinearGaussianCPD("a", 0.0, (), 1.0), LinearGaussianCPD("z", 0.0, (), 1.0)],
        )


def test_network_validation_parent_mismatch():
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    with pytest.raises(CPDError):
        BayesianNetwork(
            dag,
            [
                LinearGaussianCPD("a", 0.0, (), 1.0),
                LinearGaussianCPD("b", 0.0, (), 1.0),  # should have parent a
            ],
        )


def test_network_duplicate_cpd():
    dag = DAG(nodes=["a"])
    with pytest.raises(CPDError):
        BayesianNetwork(
            dag,
            [LinearGaussianCPD("a", 0.0, (), 1.0), LinearGaussianCPD("a", 1.0, (), 1.0)],
        )


def test_log10_likelihood_is_natural_over_ln10(chain_gaussian_net, rng):
    data = chain_gaussian_net.sample(100, rng)
    assert chain_gaussian_net.log10_likelihood(data) == pytest.approx(
        chain_gaussian_net.log_likelihood(data) / np.log(10)
    )


def test_sample_reproducible(chain_gaussian_net):
    d1 = chain_gaussian_net.sample(50, rng=42)
    d2 = chain_gaussian_net.sample(50, rng=42)
    assert d1 == d2


def test_sample_respects_structure(chain_gaussian_net):
    data = chain_gaussian_net.sample(30000, rng=1)
    # b ≈ 0.5 + 2a
    coeff = np.polyfit(data["a"], data["b"], 1)
    assert coeff[0] == pytest.approx(2.0, abs=0.05)


def test_sample_size_validation(chain_gaussian_net):
    with pytest.raises(InferenceError):
        chain_gaussian_net.sample(0)


def test_n_parameters_sums_cpds(chain_gaussian_net):
    assert chain_gaussian_net.n_parameters == 2 + 3 + 3


def test_gaussian_network_rejects_discrete_cpd():
    dag = DAG(nodes=["a"])
    with pytest.raises(CPDError):
        GaussianBayesianNetwork(dag, [TabularCPD("a", 2, np.array([0.5, 0.5]))])


def test_discrete_network_rejects_gaussian_cpd():
    dag = DAG(nodes=["a"])
    with pytest.raises(CPDError):
        DiscreteBayesianNetwork(dag, [LinearGaussianCPD("a", 0.0, (), 1.0)])


def test_discrete_network_cardinality_mismatch():
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    with pytest.raises(CPDError):
        DiscreteBayesianNetwork(
            dag,
            [
                TabularCPD("a", 3, np.ones(3) / 3),
                TabularCPD("b", 2, np.full((2, 2), 0.5), ("a",), (2,)),  # a has card 3
            ],
        )


def hybrid_net():
    dag = DAG(nodes=["a", "b", "D"], edges=[("a", "b"), ("a", "D"), ("b", "D")])
    f = Sum([Var("a"), Var("b")])
    return HybridResponseNetwork(
        dag,
        [
            LinearGaussianCPD("a", 1.0, (), 0.2),
            LinearGaussianCPD("b", 0.0, [1.0], 0.1, ("a",)),
            NoisyDeterministicCPD("D", f, ("a", "b"), variance=0.01),
        ],
        response="D",
    )


def test_hybrid_requires_noisy_response():
    dag = DAG(nodes=["a", "D"], edges=[("a", "D")])
    with pytest.raises(CPDError):
        HybridResponseNetwork(
            dag,
            [LinearGaussianCPD("a", 0.0, (), 1.0),
             LinearGaussianCPD("D", 0.0, [1.0], 1.0, ("a",))],
            response="D",
        )


def test_hybrid_service_subnetwork():
    net = hybrid_net()
    sub = net.service_subnetwork()
    assert set(sub.nodes) == {"a", "b"}
    assert isinstance(sub, GaussianBayesianNetwork)


def test_hybrid_response_distribution_mean():
    net = hybrid_net()
    samples = net.response_distribution(n_samples=30000, rng=5)
    # E[D] = E[a] + E[b] = 1 + 1 = 2
    assert samples.mean() == pytest.approx(2.0, abs=0.03)


def test_hybrid_response_distribution_with_evidence():
    net = hybrid_net()
    samples = net.response_distribution(n_samples=30000, rng=6, evidence={"a": 2.0})
    # a=2 -> b ~ N(2, .1) -> D ≈ 4
    assert samples.mean() == pytest.approx(4.0, abs=0.03)


def test_hybrid_loglik_uses_all_nodes(chain_gaussian_net):
    net = hybrid_net()
    data = net.sample(500, rng=7)
    total = net.log_likelihood(data)
    manual = sum(net.cpd(n).log_likelihood(data).sum() for n in net.nodes)
    assert total == pytest.approx(manual)
