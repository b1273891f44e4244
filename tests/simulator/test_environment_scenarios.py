"""Assembled environments and canned scenarios."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulator.environment import SimulatedEnvironment
from repro.simulator.scenarios.ediamond import (
    EDIAMOND_ALIASES,
    ediamond_scenario,
    ediamond_workflow,
)
from repro.simulator.scenarios.random_env import random_environment
from repro.simulator.service import ServiceSpec
from repro.simulator.delays import Deterministic
from repro.workflow.constructs import Activity, Sequence


def test_environment_spec_mismatch_rejected():
    wf = Sequence([Activity("a"), Activity("b")])
    with pytest.raises(SimulationError):
        SimulatedEnvironment(
            workflow=wf, services=(ServiceSpec("a", Deterministic(1.0)),)
        )


def test_environment_simulate_shapes(ediamond_env):
    data = ediamond_env.simulate(50, rng=0)
    assert data.n_rows == 50
    assert set(data.columns) == {"X1", "X2", "X3", "X4", "X5", "X6", "D"}
    assert np.all(data["D"] > 0)


def test_environment_train_test_disjoint_rows(ediamond_env):
    train, test = ediamond_env.train_test(40, 20, rng=1)
    assert train.n_rows == 40
    assert test.n_rows == 20


def test_environment_knowledge_structure(ediamond_env):
    dag = ediamond_env.knowledge_structure()
    assert set(dag.parents("D")) == set(ediamond_env.service_names)
    with_r = ediamond_env.knowledge_structure(include_resources=True)
    assert "R_linux" in with_r.nodes


def test_ediamond_aliases_cover_six_services():
    assert set(EDIAMOND_ALIASES) == set(ediamond_workflow().services())
    assert EDIAMOND_ALIASES["X5"] == "ogsa_dai_local"


def test_ediamond_f_matches_paper(ediamond_env):
    f = ediamond_env.response_time_function()
    assert f.to_string() == "X1 + X2 + max(X3 + X5, X4 + X6)"


def test_ediamond_remote_slower_than_local(ediamond_env):
    data = ediamond_env.simulate(400, rng=3)
    # WAN offset: remote locator/DAI are slower on average.
    assert data["X4"].mean() > data["X3"].mean()
    assert data["X6"].mean() > data["X5"].mean()


def test_ediamond_wan_delay_knob():
    slow = ediamond_scenario(wan_delay=1.0).simulate(300, rng=4)
    fast = ediamond_scenario(wan_delay=0.0).simulate(300, rng=4)
    assert slow["X4"].mean() > fast["X4"].mean() + 0.5


def test_ediamond_d_at_least_max_branch(ediamond_env):
    data = ediamond_env.simulate(200, rng=5)
    lhs = data["X1"] + data["X2"] + np.maximum(
        data["X3"] + data["X5"], data["X4"] + data["X6"]
    )
    # Up to measurement noise on the X's, D tracks f(X).
    rel = np.abs(lhs - data["D"]) / data["D"]
    assert np.median(rel) < 0.05


def test_random_environment_properties():
    env = random_environment(25, rng=6)
    assert len(env.services) == 25
    assert env.workflow.n_services() == 25
    data = env.simulate(30, rng=7)
    assert data.n_rows == 30
    assert np.all(data["D"] > 0)


def test_random_environment_distinct_per_seed():
    e1 = random_environment(10, rng=1)
    e2 = random_environment(10, rng=2)
    assert e1.workflow != e2.workflow


def test_random_environment_validation():
    with pytest.raises(SimulationError):
        random_environment(0)
