"""Performance contracts: the hot paths must stay vectorized.

These are not micro-benchmarks (see ``benchmarks/``) but regression
tripwires: each asserts a generous wall-clock bound that only a
vectorized NumPy implementation can meet on a single core — a per-row
Python loop would blow through it by an order of magnitude.
"""

import time

import numpy as np
import pytest

from repro.bn.data import Dataset


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


N_ROWS = 200_000


@pytest.fixture(scope="module")
def big_gaussian_data():
    from repro.bn.cpd import LinearGaussianCPD
    from repro.bn.dag import DAG
    from repro.bn.network import GaussianBayesianNetwork

    dag = DAG(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    net = GaussianBayesianNetwork(
        dag,
        [
            LinearGaussianCPD("a", 1.0, (), 0.5),
            LinearGaussianCPD("b", 0.5, [2.0], 0.3, ("a",)),
            LinearGaussianCPD("c", -1.0, [1.5], 0.2, ("b",)),
        ],
    )
    data, secs = timed(net.sample, N_ROWS, 0)
    assert secs < 2.0  # ancestral sampling is vectorized per node
    return net, data


def test_log_likelihood_vectorized(big_gaussian_data):
    net, data = big_gaussian_data
    _, secs = timed(net.log_likelihood, data)
    assert secs < 0.5


def test_linear_gaussian_fit_vectorized(big_gaussian_data):
    from repro.bn.learning.mle import fit_linear_gaussian

    _, data = big_gaussian_data
    _, secs = timed(fit_linear_gaussian, data, "c", ("a", "b"))
    assert secs < 0.5


def test_tabular_counting_vectorized(rng):
    from repro.bn.learning.mle import fit_tabular

    data = Dataset(
        {
            "x": rng.integers(0, 5, size=N_ROWS),
            "p": rng.integers(0, 5, size=N_ROWS),
            "q": rng.integers(0, 5, size=N_ROWS),
        }
    )
    _, secs = timed(fit_tabular, data, "x", 5, ("p", "q"), (5, 5))
    assert secs < 0.5


def test_workflow_expression_vectorized():
    from repro.simulator.scenarios.ediamond import ediamond_workflow
    from repro.workflow.response_time import response_time_function

    f = response_time_function(ediamond_workflow())
    rng = np.random.default_rng(0)
    cols = {s: rng.exponential(size=N_ROWS) for s in f.inputs}
    _, secs = timed(f, cols)
    assert secs < 0.2


def test_deterministic_cpd_loglik_vectorized(rng):
    from repro.bn.cpd import DeterministicCPD
    from repro.workflow.expressions import Sum, Var

    cpd = DeterministicCPD(
        "d",
        Sum([Var("a"), Var("b")]),
        ("a", "b"),
        {"a": np.linspace(0, 1, 8), "b": np.linspace(0, 1, 8)},
        np.linspace(-0.1, 2.1, 9),
        leak=0.1,
    )
    data = Dataset(
        {
            "d": rng.integers(0, 8, size=N_ROWS),
            "a": rng.integers(0, 8, size=N_ROWS),
            "b": rng.integers(0, 8, size=N_ROWS),
        }
    )
    _, secs = timed(cpd.log_likelihood, data)
    assert secs < 0.5


def test_discretizer_transform_vectorized(rng):
    from repro.bn.discretize import Discretizer

    data = Dataset({"x": rng.exponential(size=N_ROWS)})
    disc = Discretizer(n_bins=8).fit(data)
    _, secs = timed(disc.transform, data)
    assert secs < 0.3


def test_localize_is_one_batched_sweep():
    """One localize over 80 services runs the moment plan once, batched.

    A per-service loop of full assessments takes ~0.6 s here; the
    batched sweep takes 7-13 ms on a shared 2-core x86 host.
    """
    from repro.apps.localization import ProblemLocalizer
    from repro.core.kertbn import build_continuous_kertbn
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    env = build_scenario(ScenarioSpec("mixed", 80, "gg1")).env
    window = env.simulate(120, rng=0)
    localizer = ProblemLocalizer(build_continuous_kertbn(env.workflow, window))
    observed = {s: 1.5 * float(np.mean(window[s])) for s in env.service_names}
    localizer.localize(observed)  # first call pays allocator growth
    secs = min(timed(localizer.localize, observed)[1] for _ in range(3))
    assert secs < 0.03
