"""Decentralized learning: messaging, agents, coordinator."""

import numpy as np
import pytest

from repro.bn.data import Dataset
from repro.bn.network import GaussianBayesianNetwork
from repro.decentralized.agent import LearningAgent, linear_gaussian_fitter
from repro.decentralized.coordinator import Coordinator
from repro.decentralized.messaging import Channel, Network
from repro.exceptions import LearningError, SimulationError


# --------------------------------------------------------------------- #
# Messaging
# --------------------------------------------------------------------- #


def test_channel_records_payload_sizes():
    ch = Channel(sender="a", recipient="b")
    msg = ch.send("a", np.zeros(100))
    assert msg.n_values == 100
    assert msg.n_bytes == 800
    assert ch.bytes_delivered == 800


def test_network_dedupes_channels():
    net = Network()
    c1 = net.channel("a", "b")
    c2 = net.channel("a", "b")
    assert c1 is c2
    with pytest.raises(SimulationError):
        net.channel("a", "a")
    c1.send("a", np.zeros(10))
    summary = net.round_summary()
    assert summary["n_messages"] == 1 and summary["n_channels"] == 1


# --------------------------------------------------------------------- #
# Agents
# --------------------------------------------------------------------- #


def test_agent_data_locality(rng):
    agent = LearningAgent("x", ("p",), linear_gaussian_fitter())
    assert not agent.ready
    assert agent.missing == ("x", "p")
    agent.collect_local(rng.normal(size=100))
    assert agent.missing == ("p",)
    ch = Channel(sender="p", recipient="x")
    agent.receive(ch.send("p", rng.normal(size=100)))
    assert agent.ready
    cpd = agent.learn()
    assert cpd.variable == "x"
    assert cpd.parents == ("p",)
    assert agent.last_fit_seconds > 0


def test_root_agent_needs_no_messages(rng):
    agent = LearningAgent("x", (), linear_gaussian_fitter())
    agent.collect_local(rng.normal(size=50))
    assert agent.ready
    assert agent.learn().parents == ()


def test_agent_rejects_wrong_messages(rng):
    agent = LearningAgent("x", ("p",), linear_gaussian_fitter())
    ch_wrong_recipient = Channel(sender="p", recipient="y")
    with pytest.raises(LearningError):
        agent.receive(ch_wrong_recipient.send("p", np.zeros(3)))
    ch_wrong_col = Channel(sender="q", recipient="x")
    with pytest.raises(LearningError):
        agent.receive(ch_wrong_col.send("q", np.zeros(3)))


def test_agent_learn_before_ready_raises():
    agent = LearningAgent("x", ("p",), linear_gaussian_fitter())
    with pytest.raises(LearningError):
        agent.learn()


def test_agent_misaligned_columns_raise(rng):
    agent = LearningAgent("x", ("p",), linear_gaussian_fitter())
    agent.collect_local(rng.normal(size=100))
    ch = Channel(sender="p", recipient="x")
    agent.receive(ch.send("p", rng.normal(size=99)))
    with pytest.raises(LearningError):
        agent.learn()


# --------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------- #


def test_coordinator_round_produces_consistent_network(ediamond_env, ediamond_data):
    train, _ = ediamond_data
    dag = ediamond_env.knowledge_structure()
    service_dag = dag.subgraph([n for n in dag.nodes if n != "D"])
    coord = Coordinator(service_dag, linear_gaussian_fitter())
    result = coord.learn_round(train)
    assert set(result.cpds) == set(map(str, service_dag.nodes))
    assert result.decentralized_seconds <= result.centralized_seconds
    # Messages flow only along structure edges.
    assert result.network_summary["n_channels"] == service_dag.n_edges
    # Assembled network scores identically to a centralized MLE fit.
    net = GaussianBayesianNetwork(service_dag, list(result.cpds.values()))
    from repro.bn.learning.mle import fit_gaussian_network

    central = fit_gaussian_network(service_dag, train)
    test = train.head(100)
    assert net.log10_likelihood(test) == pytest.approx(
        central.log10_likelihood(test)
    )


def test_coordinator_response_fit_hook(ediamond_env, ediamond_data):
    from repro.bn.cpd import NoisyDeterministicCPD
    from repro.utils.timing import timed

    train, _ = ediamond_data
    dag = ediamond_env.knowledge_structure()
    f = ediamond_env.response_time_function()

    def fit_response(data):
        return timed(
            NoisyDeterministicCPD.fit_variance,
            "D", f, tuple(sorted(f.inputs)), data,
        )

    coord = Coordinator(dag, linear_gaussian_fitter(), response="D",
                        response_fit=fit_response)
    result = coord.learn_round(train)
    assert "D" in result.cpds
    assert result.response_cpd_seconds > 0


def test_coordinator_response_without_fit_raises(ediamond_env, ediamond_data):
    train, _ = ediamond_data
    dag = ediamond_env.knowledge_structure()
    coord = Coordinator(dag, linear_gaussian_fitter(), response="D")
    with pytest.raises(LearningError):
        coord.learn_round(train)


def test_coordinator_unknown_response():
    from repro.bn.dag import DAG

    with pytest.raises(LearningError):
        Coordinator(DAG(nodes=["a"]), linear_gaussian_fitter(), response="Z")
