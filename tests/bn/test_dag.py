"""Unit tests for the DAG substrate."""

import pytest

from repro.bn.dag import DAG
from repro.exceptions import GraphError


def test_add_nodes_and_edges_basic():
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    assert dag.n_nodes == 2
    assert dag.n_edges == 1
    assert dag.has_edge("a", "b")
    assert not dag.has_edge("b", "a")
    assert dag.parents("b") == ("a",)
    assert dag.children("a") == ("b",)


def test_add_edge_creates_endpoints():
    dag = DAG()
    dag.add_edge("x", "y")
    assert set(dag.nodes) == {"x", "y"}


def test_duplicate_edge_is_noop():
    dag = DAG(edges=[("a", "b")])
    dag.add_edge("a", "b")
    assert dag.n_edges == 1


def test_self_loop_rejected():
    dag = DAG()
    with pytest.raises(GraphError):
        dag.add_edge("a", "a")


def test_cycle_rejected():
    dag = DAG(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(GraphError):
        dag.add_edge("c", "a")


def test_long_cycle_rejected():
    dag = DAG(edges=[(i, i + 1) for i in range(10)])
    with pytest.raises(GraphError):
        dag.add_edge(10, 0)


def test_unknown_node_queries_raise():
    dag = DAG(nodes=["a"])
    with pytest.raises(GraphError):
        dag.parents("zzz")


def test_roots_and_leaves():
    dag = DAG(edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert dag.roots() == ("a",)
    assert dag.leaves() == ("d",)


def test_topological_order_respects_edges():
    dag = DAG(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    order = dag.topological_order()
    pos = {n: i for i, n in enumerate(order)}
    for u, v in dag.edges:
        assert pos[u] < pos[v]


def test_has_path():
    dag = DAG(edges=[("a", "b"), ("b", "c")])
    assert dag.has_path("a", "c")
    assert not dag.has_path("c", "a")
    assert dag.has_path("a", "a")
    assert not dag.has_path("a", "nope")


def test_subgraph_induced():
    dag = DAG(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    sub = dag.subgraph(["a", "c"])
    assert set(sub.nodes) == {"a", "c"}
    assert sub.edges == (("a", "c"),)


def test_copy_is_independent():
    dag = DAG(edges=[("a", "b")])
    cp = dag.copy()
    cp.add_edge("b", "c")
    assert "c" not in dag
    assert dag == DAG(edges=[("a", "b")])


def test_equality_ignores_insertion_order():
    d1 = DAG(nodes=["a", "b"], edges=[("a", "b")])
    d2 = DAG(nodes=["b", "a"], edges=[("a", "b")])
    assert d1 == d2


def test_random_dag_respects_max_parents(rng):
    dag = DAG.random(range(30), 0.8, rng, max_parents=2)
    assert all(dag.in_degree(n) <= 2 for n in dag.nodes)


def test_random_dag_is_acyclic(rng):
    for _ in range(5):
        dag = DAG.random(range(15), 0.5, rng)
        order = dag.topological_order()
        assert len(order) == 15
