"""Compile-once engine cross-checked against VE and brute-force enumeration."""

import numpy as np
import pytest

from repro.bn.cpd import TabularCPD
from repro.bn.dag import DAG
from repro.bn.inference.engine import CompiledDiscreteModel
from repro.bn.inference.variable_elimination import query as ve_query
from repro.bn.network import DiscreteBayesianNetwork
from repro.exceptions import InferenceError

from tests.bn._enumeration_oracle import posterior
from tests.bn.test_inference_ve import brute_force, random_discrete_net


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_single_queries_match_scratch_ve(seed):
    rng = np.random.default_rng(seed)
    net = random_discrete_net(rng, n_nodes=6)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    evidence = {nodes[-1]: 0}
    for q in nodes[:-1]:
        ref = ve_query(net, [q], evidence)
        got = engine.query([q], evidence)
        assert got.variables == ref.variables
        np.testing.assert_allclose(got.values, ref.values, atol=1e-9)


@pytest.mark.parametrize("seed", [5, 6])
def test_joint_queries_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    net = random_discrete_net(rng, n_nodes=5)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    evidence = {nodes[0]: 0}
    got = engine.query(nodes[1:3], evidence)
    ref = brute_force(net, nodes[1:3], evidence)
    np.testing.assert_allclose(got.values, ref, atol=1e-9)


def test_matches_enumeration_oracle_marginals():
    rng = np.random.default_rng(7)
    net = random_discrete_net(rng, n_nodes=6)
    nodes = [str(n) for n in net.nodes]
    evidence = {nodes[0]: 0}
    engine = CompiledDiscreteModel(net)
    for q in nodes[1:]:
        np.testing.assert_allclose(
            engine.query([q], evidence).values,
            posterior(net, [q], evidence),
            atol=1e-9,
        )


def test_query_batch_matches_per_row_queries():
    rng = np.random.default_rng(8)
    net = random_discrete_net(rng, n_nodes=6)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    cards = net.cardinalities
    ev_vars = [nodes[0], nodes[-1]]
    n = 40
    columns = {v: rng.integers(0, cards[v], size=n) for v in ev_vars}
    batch = engine.query_batch([nodes[2], nodes[3]], columns)
    assert batch.shape == (n, cards[nodes[2]], cards[nodes[3]])
    for i in range(n):
        row_ev = {v: int(columns[v][i]) for v in ev_vars}
        ref = ve_query(net, [nodes[2], nodes[3]], row_ev)
        np.testing.assert_allclose(batch[i], ref.values, atol=1e-9)


def test_query_batch_accepts_row_mappings():
    rng = np.random.default_rng(9)
    net = random_discrete_net(rng, n_nodes=5)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    rows = [{nodes[0]: 0}, {nodes[0]: 1}]
    batch = engine.query_batch([nodes[-1]], rows)
    for i, row in enumerate(rows):
        np.testing.assert_allclose(
            batch[i], ve_query(net, [nodes[-1]], row).values, atol=1e-9
        )


def test_plans_and_priors_are_cached():
    rng = np.random.default_rng(10)
    net = random_discrete_net(rng, n_nodes=5)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    engine.query([nodes[1]], {nodes[0]: 0})
    engine.query([nodes[1]], {nodes[0]: 1})  # same signature, new values
    assert engine.n_cached_plans == 1
    engine.query([nodes[2]], {nodes[0]: 0})
    assert engine.n_cached_plans == 2
    p1 = engine.prior(nodes[1])
    p2 = engine.prior(nodes[1])
    assert p1 is p2
    np.testing.assert_allclose(p1.values, ve_query(net, [nodes[1]], {}).values, atol=1e-9)


def test_network_query_fast_path_uses_cached_engine():
    rng = np.random.default_rng(11)
    net = random_discrete_net(rng, n_nodes=5)
    nodes = [str(n) for n in net.nodes]
    assert net.compiled() is net.compiled()
    got = net.query([nodes[1]], {nodes[0]: 0})
    ref = ve_query(net, [nodes[1]], {nodes[0]: 0})
    np.testing.assert_allclose(got.values, ref.values, atol=1e-9)
    batch = net.query_batch([nodes[1]], {nodes[0]: [0, 1]})
    np.testing.assert_allclose(batch[0], got.values, atol=1e-9)


def test_posterior_mean_batch():
    rng = np.random.default_rng(12)
    net = random_discrete_net(rng, n_nodes=5)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    card = net.cardinalities[nodes[1]]
    centers = np.linspace(1.0, 2.0, card)
    cols = {nodes[0]: rng.integers(0, net.cardinalities[nodes[0]], size=7)}
    means = engine.posterior_mean_batch(nodes[1], centers, cols)
    for i in range(7):
        expected = net.posterior_mean(
            nodes[1], centers, {nodes[0]: int(cols[nodes[0]][i])}
        )
        assert means[i] == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------------- #
# Error paths
# --------------------------------------------------------------------- #


def test_engine_error_paths():
    rng = np.random.default_rng(13)
    net = random_discrete_net(rng, n_nodes=4)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    with pytest.raises(InferenceError):
        engine.query(["nope"], {})
    with pytest.raises(InferenceError):
        engine.query([nodes[0]], {nodes[0]: 0})
    with pytest.raises(InferenceError):
        engine.query([], {nodes[0]: 0})
    with pytest.raises(InferenceError):
        engine.query([nodes[1]], {nodes[0]: 99})
    with pytest.raises(InferenceError):
        engine.query_batch([nodes[1]], {})
    with pytest.raises(InferenceError):
        engine.query_batch([nodes[1]], {nodes[0]: []})
    with pytest.raises(InferenceError):
        engine.query_batch([nodes[1]], {nodes[0]: [0], nodes[2]: [0, 0]})
    with pytest.raises(InferenceError):
        engine.query_batch([nodes[1]], {nodes[0]: [-1]})
    with pytest.raises(InferenceError):
        engine.query_batch([nodes[1]], [{nodes[0]: 0}, {nodes[2]: 0}])


def test_zero_probability_evidence_raises():
    # A is deterministically 0 and P(B=1 | A=0) = 0, so observing B=1 is
    # impossible; both the single and the batched path must say so.
    engine = CompiledDiscreteModel(
        DiscreteBayesianNetwork(
            DAG(nodes=["A", "B", "C"], edges=[("A", "B"), ("B", "C")]),
            [
                TabularCPD("A", 2, np.array([1.0, 0.0])),
                TabularCPD("B", 2, np.array([[1.0, 0.3], [0.0, 0.7]]), ("A",), (2,)),
                TabularCPD("C", 2, np.array([[0.5, 0.5], [0.5, 0.5]]), ("B",), (2,)),
            ],
        )
    )
    with pytest.raises(InferenceError, match="zero probability"):
        engine.query(["C"], {"B": 1})
    with pytest.raises(InferenceError, match="zero probability"):
        engine.query_batch(["C"], {"B": [0, 1]})
    # The possible row alone still works.
    np.testing.assert_allclose(engine.query_batch(["C"], {"B": [0]})[0].sum(), 1.0)


def test_plan_cache_lru_cap_holds():
    """Adversarial query mixes may not grow the plan cache past its cap."""
    rng = np.random.default_rng(12)
    net = random_discrete_net(rng, n_nodes=6)
    engine = CompiledDiscreteModel(net, plan_cache_size=4)
    assert engine.plan_cache_capacity == 4
    nodes = [str(n) for n in net.nodes]
    # 6 distinct signatures: vary the query variable with fixed evidence.
    for q in nodes[1:]:
        engine.query([q], {nodes[0]: 0})
    engine.query([nodes[0]], {nodes[1]: 0})
    stats = engine.cache_stats()
    assert engine.n_cached_plans <= 4
    assert stats["evictions"] >= 2
    assert stats["compiles"] == 6
    # Evicted signatures recompile — and still answer correctly.
    got = engine.query([nodes[1]], {nodes[0]: 0})
    np.testing.assert_allclose(
        got.values, ve_query(net, [nodes[1]], {nodes[0]: 0}).values, atol=1e-9
    )
    assert engine.n_cached_plans <= 4


def test_evidence_columns_intp_arrays_are_not_copied():
    """Columnar intp evidence must flow through zero-copy."""
    from repro.bn.inference.engine import _evidence_columns

    col = np.arange(16, dtype=np.intp)
    out = _evidence_columns({"A": col})
    assert np.shares_memory(out["A"], col)
    # Other integer dtypes of the same width are also zero-copy.
    if np.dtype(np.int64).itemsize == np.dtype(np.intp).itemsize:
        col64 = np.arange(16, dtype=np.int64)
        assert np.shares_memory(_evidence_columns({"A": col64})["A"], col64)
    # Floats must be converted (and hence copied), never reinterpreted.
    colf = np.zeros(4, dtype=np.float64)
    outf = _evidence_columns({"A": colf})
    assert outf["A"].dtype == np.intp
    assert not np.shares_memory(outf["A"], colf)


def test_query_batch_float32_path():
    """Single-precision batches stay within the documented deviation."""
    from repro.bn.inference.engine import FLOAT32_MAX_DEVIATION

    rng = np.random.default_rng(13)
    net = random_discrete_net(rng, n_nodes=6)
    engine = CompiledDiscreteModel(net)
    nodes = [str(n) for n in net.nodes]
    cards = net.cardinalities
    ev_vars = [nodes[0], nodes[-1]]
    n = 64
    columns = {
        v: rng.integers(0, cards[v], size=n).astype(np.intp) for v in ev_vars
    }
    exact = engine.query_batch([nodes[2]], columns)
    fast = engine.query_batch([nodes[2]], columns, dtype=np.float32)
    assert fast.dtype == np.float32
    assert np.max(np.abs(fast.astype(np.float64) - exact)) <= FLOAT32_MAX_DEVIATION
    with pytest.raises(InferenceError, match="dtype"):
        engine.query_batch([nodes[2]], columns, dtype=np.int32)
