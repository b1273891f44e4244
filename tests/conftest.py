"""Shared fixtures.

Expensive artifacts (simulated datasets, built models) are session-scoped
so the suite stays fast on a single core; tests must not mutate them.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.bn.cpd import LinearGaussianCPD
from repro.bn.dag import DAG
from repro.bn.network import GaussianBayesianNetwork
from repro.obs import runtime
from repro.simulator.scenarios.ediamond import ediamond_scenario


@pytest.fixture(scope="session", autouse=True)
def _obs_snapshot_artifact():
    """When ``REPRO_OBS_SNAPSHOT_OUT`` names a path, enable observability
    for the whole run and dump the final metrics + trace snapshot there at
    teardown — CI sets this on the chaos suites and uploads the JSON as a
    build artifact."""
    out = os.environ.get("REPRO_OBS_SNAPSHOT_OUT")
    if not out:
        yield
        return
    obs.enable()
    obs.reset()
    yield
    with open(out, "w") as fh:
        json.dump(obs.snapshot(), fh, indent=2, default=str)
    obs.disable()


@pytest.fixture
def obs_on():
    """Observability enabled and empty for one test, then restored."""
    was_enabled = runtime.OBS.enabled
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    runtime.OBS.enabled = was_enabled


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def chain_gaussian_net():
    """a -> b -> c with known parameters (hand-checkable joint)."""
    dag = DAG(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    return GaussianBayesianNetwork(
        dag,
        [
            LinearGaussianCPD("a", 1.0, (), 0.5),
            LinearGaussianCPD("b", 0.5, [2.0], 0.3, ("a",)),
            LinearGaussianCPD("c", -1.0, [1.5], 0.2, ("b",)),
        ],
    )


@pytest.fixture(scope="session")
def ediamond_env():
    return ediamond_scenario()


@pytest.fixture(scope="session")
def ediamond_data(ediamond_env):
    """(train, test) for the eDiaMoND scenario — do not mutate."""
    return ediamond_env.train_test(600, 300, rng=123)


@pytest.fixture(scope="session")
def ediamond_discrete_model(ediamond_env, ediamond_data):
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    return build_discrete_kertbn(ediamond_env.workflow, train, n_bins=4)


@pytest.fixture(scope="session")
def ediamond_continuous_model(ediamond_env, ediamond_data):
    from repro.core.kertbn import build_continuous_kertbn

    train, _ = ediamond_data
    return build_continuous_kertbn(ediamond_env.workflow, train)
