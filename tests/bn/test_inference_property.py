"""Property test: every exact inference path agrees with an oracle.

~50 seeded random networks sweep width 4–20 and n_bins 3–8
(``max_parents=2`` keeps the exact cross-check cheap).  On each net the
compiled engine (fresh plan, pattern-cache hit and batched gather, on
both the joint-table and the evidence-sliced contraction path) must
reproduce variable-elimination posteriors to within 1e-9 — the same
bound the benchmark gate enforces on the eDiaMoND cell — and the batch
must give identical answers whatever integer dtype its columns carry.
``pmf``, the serving chain's lookup, must give them to within 1e-12 on
both paths, evidence-free priors included.
On every cell whose full joint grid has at most
:data:`~tests.bn._enumeration_oracle.MAX_JOINT_STATES` states, the
engine and variable elimination are also checked against brute-force
joint enumeration, which shares no code with either.  A deterministic
zero-probability case checks that both exact paths reject impossible
evidence and that the engine keeps answering afterwards.
"""

import numpy as np
import pytest

from repro.bn.cpd import TabularCPD
from repro.bn.inference.engine import CompiledDiscreteModel
from repro.bn.inference.variable_elimination import query as ve_query
from repro.bn.network import DiscreteBayesianNetwork
from repro.bn.random_nets import random_discrete_network
from repro.exceptions import InferenceError

from tests.bn._enumeration_oracle import MAX_JOINT_STATES, joint_states, posterior

# 50 (seed, width, n_bins) cells sweeping width 4–20 and n_bins 3–8.
CASES = [(s, 4 + (s * 3) % 17, 3 + s % 6) for s in range(50)]

#: Integer column dtypes a caller may hand the batch lane (the serving
#: layer passes its callers' columns through unconverted).
COLUMN_DTYPES = (np.int8, np.int32, np.uint16, np.int64, np.intp)


def _pick(rng, net):
    """A query variable, and evidence on two other variables."""
    nodes = [str(n) for n in net.nodes]
    order = [nodes[i] for i in rng.permutation(len(nodes))]
    q, e1, e2 = order[0], order[1], order[2]
    cards = net.cardinalities
    ev = {
        e1: int(rng.integers(cards[e1])),
        e2: int(rng.integers(cards[e2])),
    }
    return q, ev


@pytest.mark.parametrize("seed,width,n_bins", CASES)
def test_all_paths_match_variable_elimination(seed, width, n_bins):
    rng = np.random.default_rng(seed)
    net = random_discrete_network(rng, width=width, n_bins=n_bins)
    q, ev = _pick(rng, net)
    # Same pattern, other values → cached-plan path.
    ev2 = {
        v: (s + 1) % net.cardinalities[v] for v, s in ev.items()
    }
    references = [(ve_query(net, [q], ev).values, ve_query(net, [q], ev2).values)]
    prior = ve_query(net, [q], {}).values
    if joint_states(net) <= MAX_JOINT_STATES:
        oracle = (posterior(net, [q], ev), posterior(net, [q], ev2))
        for ve_values, exact in zip(references[0], oracle):
            np.testing.assert_allclose(ve_values, exact, atol=1e-9)
        references.append(oracle)

    cols = {
        v: np.array([ev[v], ev2[v]], dtype=np.intp) for v in ev
    }
    # Joint-table gather, and (max_joint_entries=1) the evidence-sliced
    # contraction path.
    for engine in (
        CompiledDiscreteModel(net),
        CompiledDiscreteModel(net, max_joint_entries=1),
    ):
        fresh = engine.query([q], ev).values
        hits_before = engine.cache_stats()["hits"]
        cached = engine.query([q], ev2).values
        assert engine.cache_stats()["hits"] == hits_before + 1
        # Batched over both evidence rows at once.
        batch = engine.query_batch([q], cols)
        assert batch.dtype == np.float64
        for expected, expected2 in references:
            np.testing.assert_allclose(fresh, expected, atol=1e-9)
            np.testing.assert_allclose(cached, expected2, atol=1e-9)
            np.testing.assert_allclose(batch[0], expected, atol=1e-9)
            np.testing.assert_allclose(batch[1], expected2, atol=1e-9)
        # pmf on the now-cached plans (and an evidence-free prior) is
        # the stored normalized row, or the sliced path's contraction;
        # either way it is variable elimination to 1e-12, read-only.
        for evidence, expected in zip((ev, ev2, {}), (*references[0], prior)):
            got = engine.pmf((q,), evidence)
            assert not got.flags.writeable
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # The same evidence in any integer dtype gives the same answers.
        for dtype in COLUMN_DTYPES:
            typed = {v: c.astype(dtype) for v, c in cols.items()}
            np.testing.assert_array_equal(engine.query_batch([q], typed), batch)


def _with_impossible_state(net, variable):
    """Rebuild ``net`` so ``variable`` has zero mass on state 0."""
    cpds = []
    for n in net.nodes:
        cpd = net.cpd(n)
        if str(n) == variable:
            table = cpd.values.copy()
            table[0] = 0.0
            table = table / table.sum(axis=0, keepdims=True)
            cpd = TabularCPD(
                str(n),
                cpd.cardinality,
                table,
                cpd.parents,
                cpd.parent_cardinalities,
            )
        cpds.append(cpd)
    return DiscreteBayesianNetwork(net.dag, cpds)


@pytest.mark.parametrize("seed", [0, 7, 21, 33, 45])
def test_zero_probability_evidence_rejected_then_engine_recovers(seed):
    rng = np.random.default_rng(seed)
    width, n_bins = 4 + (seed * 3) % 17, 3 + seed % 6
    net = random_discrete_network(rng, width=width, n_bins=n_bins)
    q, ev = _pick(rng, net)
    dead = sorted(ev)[0]
    net = _with_impossible_state(net, dead)

    engine = CompiledDiscreteModel(net)
    for answer in (engine.query, lambda *a: ve_query(net, *a)):
        with pytest.raises(InferenceError, match="zero probability"):
            answer([q], {dead: 0})

    # The rejected signature leaves the engine healthy: the same plan
    # and a wider one still answer, and still match VE.
    good = {dead: 1, **{k: v for k, v in ev.items() if k != dead}}
    for evidence in ({dead: 1}, good):
        np.testing.assert_allclose(
            engine.query([q], evidence).values,
            ve_query(net, [q], evidence).values,
            atol=1e-9,
        )
    with pytest.raises(InferenceError, match="zero probability"):
        engine.query_batch([q], {dead: np.array([1, 0])})
