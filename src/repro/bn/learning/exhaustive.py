"""Exhaustive structure search for small networks: K2's test oracle.

It finds the *global* optimum of a decomposable score by enumerating
node orderings (every DAG is consistent with at least one topological
order) and, per ordering, the best predecessor parent subset per node.
Cost is ``n! · n · 2^(n-1)`` local scores, so a guard refuses ``n > 7``.
The K2 tests check that greedy K2, given the true order, reaches this
optimum on tiny, well-separated problems.

Section 3.2's claim that "it is intractable to exhaustively search for
the best DAG in large environments" is carried by the Fig.-4 bench's
``k2_evals`` column (K2's own score evaluations as the network grows),
not by this module.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Sequence

from repro.bn.dag import DAG
from repro.exceptions import LearningError

LocalScore = Callable[[str, tuple[str, ...]], float]


def _best_parent_subset(
    node: str,
    predecessors: tuple[str, ...],
    local_score: LocalScore,
    max_parents: "int | None",
) -> tuple[tuple[str, ...], float]:
    best_set: tuple[str, ...] = ()
    best = local_score(node, ())
    cap = len(predecessors) if max_parents is None else min(max_parents, len(predecessors))
    for k in range(1, cap + 1):
        for subset in combinations(predecessors, k):
            s = local_score(node, subset)
            if s > best:
                best, best_set = s, subset
    return best_set, best


def exhaustive_search(
    nodes: Sequence[str],
    local_score: LocalScore,
    max_parents: "int | None" = None,
    max_nodes: int = 7,
) -> tuple[DAG, float]:
    """Globally optimal DAG under a decomposable score.

    Raises :class:`LearningError` when ``len(nodes) > max_nodes`` — the
    factorial blow-up the paper's Section 3.2 warns about.
    """
    nodes = [str(n) for n in nodes]
    if len(nodes) > max_nodes:
        raise LearningError(
            f"exhaustive search over {len(nodes)} nodes would evaluate "
            f"on the order of {len(nodes)}!·2^{len(nodes)-1} scores; "
            f"refusing (max_nodes={max_nodes})"
        )
    if not nodes:
        raise LearningError("need at least one node")
    best_dag: "DAG | None" = None
    best_score = -float("inf")
    for order in permutations(nodes):
        total = 0.0
        parent_sets: dict[str, tuple[str, ...]] = {}
        for i, node in enumerate(order):
            pset, s = _best_parent_subset(node, order[:i], local_score, max_parents)
            parent_sets[node] = pset
            total += s
        if total > best_score:
            best_score = total
            best_dag = DAG(
                nodes=nodes,
                edges=[(p, c) for c, ps in parent_sets.items() for p in ps],
            )
    assert best_dag is not None
    return best_dag, best_score
