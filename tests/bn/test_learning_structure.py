"""Structure learning: scores, K2, exhaustive search."""

import numpy as np
import pytest

from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.learning.exhaustive import exhaustive_search
from repro.bn.learning.k2 import k2_random_restarts, k2_search
from repro.bn.learning.scores import (
    ScoreCache,
    discrete_k2_local,
    gaussian_bic_local,
)
from repro.exceptions import LearningError


def chain_data(n=3000, rng=None):
    rng = rng or np.random.default_rng(0)
    a = rng.normal(size=n)
    b = 2 * a + rng.normal(0, 0.5, size=n)
    c = -b + rng.normal(0, 0.5, size=n)
    return Dataset({"a": a, "b": b, "c": c})


def test_gaussian_bic_prefers_true_parent():
    data = chain_data()
    assert gaussian_bic_local(data, "b", ("a",)) > gaussian_bic_local(data, "b", ())
    assert gaussian_bic_local(data, "c", ("b",)) > gaussian_bic_local(data, "c", ("a",))


def test_gaussian_bic_penalizes_spurious_parent(rng):
    n = 5000
    x = rng.normal(size=n)
    noise = rng.normal(size=n)
    data = Dataset({"x": x, "z": noise})
    assert gaussian_bic_local(data, "x", ()) > gaussian_bic_local(data, "x", ("z",))


def test_gaussian_bic_needs_rows():
    with pytest.raises(LearningError):
        gaussian_bic_local(Dataset({"x": np.array([1.0])}), "x", ())


def test_discrete_scores_prefer_true_parent(rng):
    n = 5000
    p = rng.integers(0, 2, size=n)
    x = np.where(rng.random(n) < 0.9, p, 1 - p)
    z = rng.integers(0, 2, size=n)
    data = Dataset({"p": p, "x": x, "z": z})
    with_parent = discrete_k2_local(data, "x", 2, ("p",), (2,))
    without = discrete_k2_local(data, "x", 2, (), ())
    with_noise = discrete_k2_local(data, "x", 2, ("z",), (2,))
    assert with_parent > without
    assert with_parent > with_noise


def test_score_cache_hits():
    data = chain_data(200)
    cache = ScoreCache(lambda v, ps: gaussian_bic_local(data, v, ps))
    s1 = cache("b", ("a",))
    s2 = cache("b", ("a",))
    assert s1 == s2
    assert cache.n_evaluations == 1
    assert cache.n_hits == 1


def test_k2_recovers_chain_with_good_order():
    data = chain_data()
    score = lambda v, ps: gaussian_bic_local(data, v, ps)
    result = k2_search(["a", "b", "c"], score, order=["a", "b", "c"])
    assert set(result.dag.edges) == {("a", "b"), ("b", "c")}
    assert result.n_score_evaluations > 0
    assert result.elapsed_seconds >= 0


def test_k2_bad_order_still_builds_valid_dag():
    data = chain_data()
    score = lambda v, ps: gaussian_bic_local(data, v, ps)
    result = k2_search(["a", "b", "c"], score, order=["c", "b", "a"])
    # Edges must respect the ordering: only later nodes get earlier parents.
    pos = {"c": 0, "b": 1, "a": 2}
    for u, v in result.dag.edges:
        assert pos[u] < pos[v]


def test_k2_max_parents_cap():
    rng = np.random.default_rng(4)
    n = 2000
    cols = {f"p{i}": rng.normal(size=n) for i in range(4)}
    cols["x"] = sum(cols.values()) + rng.normal(0, 0.1, size=n)
    data = Dataset(cols)
    score = lambda v, ps: gaussian_bic_local(data, v, ps)
    nodes = [f"p{i}" for i in range(4)] + ["x"]
    result = k2_search(nodes, score, order=nodes, max_parents=2)
    assert all(result.dag.in_degree(n) <= 2 for n in result.dag.nodes)


def test_k2_order_validation():
    data = chain_data(100)
    score = lambda v, ps: gaussian_bic_local(data, v, ps)
    with pytest.raises(LearningError):
        k2_search(["a", "b"], score, order=["a", "z"])


def test_k2_random_restarts_improves_or_matches_single():
    data = chain_data(800)
    score = ScoreCache(lambda v, ps: gaussian_bic_local(data, v, ps))
    single = k2_search(["c", "a", "b"], score, order=["c", "a", "b"])
    multi = k2_random_restarts(["a", "b", "c"], score, rng=0, n_restarts=10)
    assert multi.score >= single.score
    assert multi.n_restarts == 10


def test_k2_random_restarts_share_score_cache():
    # Restarts revisit overlapping (node, parent-set) families; the shared
    # cache must turn those into hits, and the raw function must never be
    # called twice for the same family.
    data = chain_data(500)
    calls: list[tuple[str, frozenset]] = []

    def counting_score(v, ps):
        calls.append((v, frozenset(ps)))
        return gaussian_bic_local(data, v, ps)

    result = k2_random_restarts(
        ["a", "b", "c"], counting_score, rng=0, n_restarts=10
    )
    assert result.n_restarts == 10
    assert result.n_cache_hits > 0
    assert len(calls) == len(set(calls))  # every family scored at most once
    # Calls + hits account for every score lookup the search made.
    assert len(calls) + result.n_cache_hits == result.n_score_evaluations
    # A caller-provided ScoreCache (the NRT-BN path) is reused, not rewrapped.
    cache = ScoreCache(lambda v, ps: gaussian_bic_local(data, v, ps))
    k2_random_restarts(["a", "b", "c"], cache, rng=0, n_restarts=5)
    assert cache.n_evaluations > 0 and cache.n_hits > 0


def test_k2_random_restarts_time_budget():
    data = chain_data(200)
    score = lambda v, ps: gaussian_bic_local(data, v, ps)
    result = k2_random_restarts(["a", "b", "c"], score, rng=1, time_budget=0.05)
    assert result.n_restarts >= 1
    with pytest.raises(LearningError):
        k2_random_restarts(["a", "b"], score, rng=1)


def test_exhaustive_matches_k2_on_easy_chain():
    # Given the true order, greedy K2 reaches the global optimum that the
    # exhaustive search certifies (up to summation order: gaps ~1e-12).
    for seed in range(5):
        data = chain_data(rng=np.random.default_rng(seed))
        score = ScoreCache(lambda v, ps: gaussian_bic_local(data, v, ps))
        best_dag, best_score = exhaustive_search(["a", "b", "c"], score)
        k2 = k2_search(["a", "b", "c"], score, order=["a", "b", "c"])
        assert abs(k2.score - best_score) <= 1e-9
        # The optimum holds the strong dependencies in some orientation.
        und = {frozenset(e) for e in best_dag.edges}
        assert frozenset(("a", "b")) in und
        assert frozenset(("b", "c")) in und


def test_exhaustive_refuses_large_problems():
    score = lambda v, ps: 0.0
    with pytest.raises(LearningError):
        exhaustive_search([f"n{i}" for i in range(9)], score)
    with pytest.raises(LearningError):
        exhaustive_search([], score)


def test_exhaustive_is_global_optimum_against_random_dags():
    rng = np.random.default_rng(8)
    data = chain_data(500, rng)
    score = ScoreCache(lambda v, ps: gaussian_bic_local(data, v, ps))
    _, best = exhaustive_search(["a", "b", "c"], score)

    def dag_score(dag):
        return sum(score(str(n), tuple(map(str, dag.parents(n)))) for n in dag.nodes)

    for _ in range(30):
        dag = DAG.random(["a", "b", "c"], rng.random(), rng)
        assert dag_score(dag) <= best + 1e-9
