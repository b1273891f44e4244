"""Cross-subsystem consistency: independent implementations must agree.

Each test pits two independently-coded paths at the same quantity —
exact Gaussian algebra vs ancestral sampling, variable elimination vs
likelihood weighting vs junction tree, engine execution vs workflow
reduction — over randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bn.cpd import LinearGaussianCPD
from repro.bn.dag import DAG
from repro.bn.network import GaussianBayesianNetwork


@st.composite
def random_gaussian_nets(draw, max_nodes=5):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    dag = DAG.random([f"v{i}" for i in range(n)], 0.5, rng, max_parents=2)
    cpds = []
    for node in dag.nodes:
        parents = tuple(map(str, dag.parents(node)))
        cpds.append(
            LinearGaussianCPD(
                str(node),
                float(rng.normal(0, 1)),
                rng.normal(0, 1, size=len(parents)),
                float(rng.uniform(0.2, 1.5)),
                parents,
            )
        )
    return GaussianBayesianNetwork(dag, cpds)


@given(random_gaussian_nets())
@settings(max_examples=25, deadline=None)
def test_joint_gaussian_matches_sampling_moments(net):
    from repro.bn.inference.gaussian import joint_gaussian

    names, mean, cov = joint_gaussian(net)
    data = net.sample(60_000, rng=0)
    for i, n in enumerate(names):
        emp = float(np.mean(data[n]))
        tol = 4.5 * np.sqrt(cov[i, i] / 60_000) + 1e-3
        assert abs(emp - mean[i]) < tol
    # Spot-check one covariance entry.
    if len(names) >= 2:
        emp_cov = float(np.cov(data[names[0]], data[names[1]])[0, 1])
        assert emp_cov == pytest.approx(cov[0, 1], abs=0.12 * max(1.0, abs(cov[0, 1])) + 0.05)


@given(random_gaussian_nets())
@settings(max_examples=15, deadline=None)
def test_network_loglik_equals_joint_mvn_density(net):
    """Per-node factorized log-density must equal the joint MVN density."""
    from scipy.stats import multivariate_normal

    from repro.bn.inference.gaussian import joint_gaussian

    names, mean, cov = joint_gaussian(net)
    data = net.sample(50, rng=1)
    factorized = net.per_row_log_likelihood(data)
    x = data.to_array(names)
    joint = multivariate_normal(mean=mean, cov=cov, allow_singular=True).logpdf(x)
    np.testing.assert_allclose(factorized, joint, rtol=1e-6, atol=1e-8)


def test_lw_matches_ve_on_discrete_net():
    from tests.bn.test_inference_ve import random_discrete_net
    from repro.bn.inference.sampling import likelihood_weighting
    from repro.bn.inference.variable_elimination import query

    rng = np.random.default_rng(7)
    net = random_discrete_net(rng, n_nodes=5, cards=(2,))
    nodes = [str(n) for n in net.nodes]
    evidence = {nodes[-1]: 0}
    target = nodes[0]
    exact = query(net, [target], evidence).values
    samples, weights = likelihood_weighting(net, evidence, n=200_000, rng=8)
    values = np.asarray(samples[target])
    total = weights.sum()
    approx = np.array(
        [weights[values == k].sum() / total for k in range(len(exact))]
    )
    np.testing.assert_allclose(approx, exact, atol=0.01)


def test_enumeration_oracle_matches_ve_on_ediamond(ediamond_discrete_model):
    """Priors through eDiaMoND's DeterministicCPD response node, checked
    against joint enumeration (no factor algebra) for VE and the engine."""
    from repro.bn.inference.variable_elimination import query

    from tests.bn._enumeration_oracle import posterior

    net = ediamond_discrete_model.network
    for node in map(str, net.nodes):
        exact = posterior(net, [node])
        np.testing.assert_allclose(query(net, [node]).values, exact, atol=1e-9)
        np.testing.assert_allclose(net.query([node]).values, exact, atol=1e-9)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=20, deadline=None)
def test_engine_response_equals_reduction_for_random_workflows(n, seed):
    """Property: for ANY generated workflow (incl. choice/loop), the
    engine's measured D equals f(measured X) in measurement mode."""
    from repro.simulator.delays import LogNormal
    from repro.simulator.engine import Engine
    from repro.simulator.service import ServiceSpec
    from repro.workflow.generator import random_workflow
    from repro.workflow.response_time import response_time_function

    from repro.workflow.response_time import has_parallel_under_loop

    rng = np.random.default_rng(seed)
    wf = random_workflow(n, rng, p_choice=0.2, p_loop=0.15)
    services = [
        ServiceSpec(s, LogNormal(0.1, 0.4), upstream_coupling=0.1)
        for s in wf.services()
    ]
    engine = Engine(wf, services, demand_sigma=0.2, rng=seed + 1)
    arrivals = np.cumsum(rng.exponential(3.0, size=10))
    records = engine.run(arrivals)
    f = response_time_function(wf)
    exact = not has_parallel_under_loop(wf)
    for r in records:
        x = {s: np.array([r.elapsed.get(s, 0.0)]) for s in wf.services()}
        fx = float(f(x)[0])
        if exact:
            assert r.response_time == pytest.approx(fx, rel=1e-9)
        else:
            # Documented exception: f lower-bounds D for parallel-in-loop.
            assert r.response_time >= fx - 1e-9


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=20, deadline=None)
def test_kert_structure_valid_for_any_workflow(n, seed):
    """Property: the knowledge-derived structure is a DAG whose response
    node is a sink with all services as parents, for any workflow."""
    from repro.workflow.generator import random_workflow
    from repro.workflow.structure import kert_bn_structure

    rng = np.random.default_rng(seed)
    wf = random_workflow(n, rng, p_choice=0.25, p_loop=0.2)
    dag = kert_bn_structure(wf)
    assert len(dag.topological_order()) == n + 1
    assert set(dag.parents("D")) == set(wf.services())
    assert dag.children("D") == ()


def test_centralized_equals_decentralized(ediamond_env, ediamond_data):
    """Both learning paths, identical parameters."""
    from repro.bn.learning.mle import fit_linear_gaussian
    from repro.decentralized.agent import linear_gaussian_fitter
    from repro.decentralized.coordinator import Coordinator

    train, _ = ediamond_data
    dag = ediamond_env.knowledge_structure()
    service_dag = dag.subgraph([n for n in dag.nodes if n != "D"])

    central = {
        str(n): fit_linear_gaussian(
            train, str(n), tuple(map(str, service_dag.parents(n)))
        )
        for n in service_dag.nodes
    }
    decentralized = Coordinator(service_dag, linear_gaussian_fitter()).learn_round(
        train
    ).cpds
    assert set(decentralized) == set(central)
    for node in central:
        assert central[node] == decentralized[node]
