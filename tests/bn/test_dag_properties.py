"""Property-based tests for DAG invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bn.dag import DAG
from repro.exceptions import GraphError


@st.composite
def random_dags(draw, max_nodes=8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    return DAG.random([f"v{i}" for i in range(n)], p, rng)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_topological_order_is_consistent(dag):
    order = dag.topological_order()
    assert sorted(map(str, order)) == sorted(map(str, dag.nodes))
    pos = {n: i for i, n in enumerate(order)}
    for u, v in dag.edges:
        assert pos[u] < pos[v]


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_parent_child_duality(dag):
    for node in dag.nodes:
        for p in dag.parents(node):
            assert node in dag.children(p)
        for c in dag.children(node):
            assert node in dag.parents(c)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_edge_count_consistency(dag):
    assert dag.n_edges == sum(dag.in_degree(n) for n in dag.nodes)
    assert dag.n_edges == sum(len(dag.children(n)) for n in dag.nodes)


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_reversing_any_edge_never_leaves_cycles_undetected(dag):
    # Dropping an edge and adding its reverse either succeeds (still a DAG,
    # so a topological order exists) or raises GraphError — never corrupts.
    for u, v in list(dag.edges)[:3]:
        clone = DAG(dag.nodes, [e for e in dag.edges if e != (u, v)])
        try:
            clone.add_edge(v, u)
        except GraphError:
            continue
        order = clone.topological_order()
        assert len(order) == clone.n_nodes


def _layout(dag):
    return dag.nodes, dag.edges, [dag.parents(n) for n in dag.nodes]


@given(random_dags(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_copy_and_subgraph_match_edge_by_edge_rebuild(dag, seed):
    """Copies skip the per-edge cycle search but keep its exact order."""
    assert _layout(dag.copy()) == _layout(DAG(dag.nodes, dag.edges))
    rng = np.random.default_rng(seed)
    keep = [n for n in dag.nodes if rng.random() < 0.6]
    kept = set(keep)
    rebuilt = DAG(keep, [(u, v) for u, v in dag.edges if u in kept and v in kept])
    assert _layout(dag.subgraph(reversed(keep))) == _layout(rebuilt)
    before, clone = _layout(dag), dag.copy()
    for n in dag.nodes:  # the copy shares no adjacency map
        clone.add_edge("source", n)
        clone.add_edge(n, "sink")
    assert _layout(dag) == before
