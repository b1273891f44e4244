"""Variable elimination cross-checked against brute-force enumeration."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bn.cpd import TabularCPD
from repro.bn.dag import DAG
from repro.bn.network import DiscreteBayesianNetwork
from repro.bn.inference.variable_elimination import query
from repro.exceptions import InferenceError


def brute_force(net, variables, evidence):
    """Enumerate the full joint and marginalize by hand."""
    cards = net.cardinalities
    nodes = list(net.nodes)
    target_cards = [cards[v] for v in variables]
    out = np.zeros(target_cards)
    for assignment in itertools.product(*[range(cards[n]) for n in nodes]):
        full = dict(zip(nodes, assignment))
        if any(full[k] != v for k, v in evidence.items()):
            continue
        p = 1.0
        for n in nodes:
            cpd = net.cpd(n)
            p *= cpd.prob(full[n], {pa: full[pa] for pa in cpd.parents})
        out[tuple(full[v] for v in variables)] += p
    return out / out.sum()


def random_discrete_net(rng, n_nodes=5, cards=(2, 3)):
    dag = DAG.random([f"v{i}" for i in range(n_nodes)], 0.4, rng, max_parents=2)
    cpds = []
    card_map = {n: int(rng.choice(cards)) for n in dag.nodes}
    for n in dag.nodes:
        parents = dag.parents(n)
        cpds.append(
            TabularCPD.random(
                n, card_map[n], rng, parents, tuple(card_map[p] for p in parents)
            )
        )
    return DiscreteBayesianNetwork(dag, cpds)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ve_matches_brute_force_marginals(seed):
    rng = np.random.default_rng(seed)
    net = random_discrete_net(rng)
    target = str(net.nodes[int(rng.integers(len(net.nodes)))])
    factor = query(net, [target])
    np.testing.assert_allclose(factor.values, brute_force(net, [target], {}), atol=1e-10)


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_ve_matches_brute_force_with_evidence(seed):
    rng = np.random.default_rng(seed)
    net = random_discrete_net(rng)
    nodes = list(net.nodes)
    target, ev = nodes[0], nodes[-1]
    state = int(rng.integers(net.cardinalities[ev]))
    factor = query(net, [target], {ev: state})
    np.testing.assert_allclose(
        factor.values, brute_force(net, [target], {ev: state}), atol=1e-10
    )


def test_ve_joint_query_two_variables():
    rng = np.random.default_rng(9)
    net = random_discrete_net(rng, n_nodes=4)
    a, b = str(net.nodes[0]), str(net.nodes[1])
    factor = query(net, [a, b])
    assert factor.variables[:2] == (a, b)
    np.testing.assert_allclose(factor.values, brute_force(net, [a, b], {}), atol=1e-10)


def test_ve_validation():
    rng = np.random.default_rng(10)
    net = random_discrete_net(rng)
    with pytest.raises(InferenceError):
        query(net, ["nope"])
    with pytest.raises(InferenceError):
        query(net, [])
    a = str(net.nodes[0])
    with pytest.raises(InferenceError):
        query(net, [a], {a: 0})


def test_ve_zero_probability_evidence():
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    net = DiscreteBayesianNetwork(
        dag,
        [
            TabularCPD("a", 2, np.array([1.0, 0.0])),
            TabularCPD("b", 2, np.array([[1.0, 0.0], [0.0, 1.0]]), ("a",), (2,)),
        ],
    )
    with pytest.raises(InferenceError):
        query(net, ["a"], {"b": 1})  # b=1 requires a=1 which has P=0


def test_ve_evidence_on_all_but_query():
    rng = np.random.default_rng(11)
    net = random_discrete_net(rng, n_nodes=4)
    nodes = [str(n) for n in net.nodes]
    target = nodes[1]
    evidence = {n: 0 for n in nodes if n != target}
    factor = query(net, [target], evidence)
    np.testing.assert_allclose(
        factor.values, brute_force(net, [target], evidence), atol=1e-10
    )


_ORDER_SCRIPT = """
import json
import numpy as np
from repro.bn.inference.variable_elimination import _min_fill_order, network_factors
from repro.bn.random_nets import random_discrete_network

orders = []
for seed in range(20):
    net = random_discrete_network(
        np.random.default_rng(seed), width=6 + seed % 10, n_bins=3
    )
    orders.append(_min_fill_order(network_factors(net), set(net.nodes)))
print(json.dumps(orders))
"""


def test_min_fill_order_ignores_hash_seed():
    """Ties in the min-fill scan break the same way under any hash seed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(out.stdout))
    assert all(run == runs[0] for run in runs[1:])
