"""Directed acyclic graphs with the queries Bayesian networks need.

The implementation keeps its own adjacency maps (insertion-ordered dicts)
rather than delegating to :mod:`networkx`, because structure learning
mutates candidate graphs in a tight loop and benefits from the slimmer
bookkeeping; :meth:`DAG.to_networkx` exists for interoperability and for
cross-checking in tests.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.exceptions import GraphError

Node = Hashable


class DAG:
    """A directed acyclic graph over hashable node labels.

    Edges point parent → child; :meth:`add_edge` refuses edges that would
    close a cycle, so instances are acyclic by construction.
    """

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[tuple[Node, Node]] = (),
    ):
        self._parents: dict[Node, dict[Node, None]] = {}
        self._children: dict[Node, dict[Node, None]] = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_node(self, node: Node) -> None:
        """Add an isolated node; adding an existing node is a no-op."""
        if node not in self._parents:
            self._parents[node] = {}
            self._children[node] = {}

    def add_edge(self, u: Node, v: Node) -> None:
        """Add edge ``u -> v``, creating endpoints as needed.

        Raises
        ------
        GraphError
            If the edge is a self-loop or would create a directed cycle.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed")
        self.add_node(u)
        self.add_node(v)
        if v in self._children[u]:
            return
        if self.has_path(v, u):
            raise GraphError(f"edge {u!r} -> {v!r} would create a cycle")
        self._children[u][v] = None
        self._parents[v][u] = None

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``u -> v``; missing edges raise :class:`GraphError`."""
        if u not in self._children or v not in self._children[u]:
            raise GraphError(f"edge {u!r} -> {v!r} not in graph")
        del self._children[u][v]
        del self._parents[v][u]

    def remove_node(self, node: Node) -> None:
        """Remove a node and all incident edges."""
        if node not in self._parents:
            raise GraphError(f"node {node!r} not in graph")
        for p in list(self._parents[node]):
            self.remove_edge(p, node)
        for c in list(self._children[node]):
            self.remove_edge(node, c)
        del self._parents[node]
        del self._children[node]

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._parents)

    @property
    def edges(self) -> tuple[tuple[Node, Node], ...]:
        return tuple((u, v) for u, cs in self._children.items() for v in cs)

    @property
    def n_nodes(self) -> int:
        return len(self._parents)

    @property
    def n_edges(self) -> int:
        return sum(len(cs) for cs in self._children.values())

    def __contains__(self, node: Node) -> bool:
        return node in self._parents

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._children and v in self._children[u]

    def parents(self, node: Node) -> tuple[Node, ...]:
        """Parent set Φ(node), in insertion order."""
        self._check(node)
        return tuple(self._parents[node])

    def children(self, node: Node) -> tuple[Node, ...]:
        self._check(node)
        return tuple(self._children[node])

    def in_degree(self, node: Node) -> int:
        self._check(node)
        return len(self._parents[node])

    def out_degree(self, node: Node) -> int:
        self._check(node)
        return len(self._children[node])

    def roots(self) -> tuple[Node, ...]:
        """Nodes with no parents — learned with local data only (Sec 3.4)."""
        return tuple(n for n in self._parents if not self._parents[n])

    def leaves(self) -> tuple[Node, ...]:
        return tuple(n for n in self._children if not self._children[n])

    def _check(self, node: Node) -> None:
        if node not in self._parents:
            raise GraphError(f"node {node!r} not in graph")

    # ------------------------------------------------------------------ #
    # Reachability / ordering
    # ------------------------------------------------------------------ #

    def has_path(self, u: Node, v: Node) -> bool:
        """True if a directed path ``u -> ... -> v`` exists (u == v counts)."""
        if u not in self._parents or v not in self._parents:
            return False
        if u == v:
            return True
        seen = {u}
        stack = [u]
        while stack:
            cur = stack.pop()
            for nxt in self._children[cur]:
                if nxt == v:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def ancestors(self, node: Node) -> set[Node]:
        """All nodes with a directed path to ``node`` (excluding itself)."""
        self._check(node)
        out: set[Node] = set()
        stack = list(self._parents[node])
        while stack:
            cur = stack.pop()
            if cur not in out:
                out.add(cur)
                stack.extend(self._parents[cur])
        return out

    def descendants(self, node: Node) -> set[Node]:
        """All nodes reachable from ``node`` (excluding itself)."""
        self._check(node)
        out: set[Node] = set()
        stack = list(self._children[node])
        while stack:
            cur = stack.pop()
            if cur not in out:
                out.add(cur)
                stack.extend(self._children[cur])
        return out

    def topological_order(self) -> list[Node]:
        """Kahn's algorithm; deterministic given insertion order."""
        in_deg = {n: len(ps) for n, ps in self._parents.items()}
        queue = deque(n for n, d in in_deg.items() if d == 0)
        order: list[Node] = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for c in self._children[n]:
                in_deg[c] -= 1
                if in_deg[c] == 0:
                    queue.append(c)
        if len(order) != self.n_nodes:  # pragma: no cover - unreachable by construction
            raise GraphError("graph contains a cycle")
        return order

    # ------------------------------------------------------------------ #
    # Probabilistic-graphical-model queries
    # ------------------------------------------------------------------ #

    def moral_neighbors(self) -> dict[Node, set[Node]]:
        """Adjacency of the moral graph: undirected edges plus married parents."""
        adj: dict[Node, set[Node]] = {n: set() for n in self._parents}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        for node in self._parents:
            ps = list(self._parents[node])
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    adj[ps[i]].add(ps[j])
                    adj[ps[j]].add(ps[i])
        return adj

    def d_separated(
        self,
        x: "Node | Iterable[Node]",
        y: "Node | Iterable[Node]",
        given: Iterable[Node] = (),
    ) -> bool:
        """Test d-separation of node sets ``x`` and ``y`` given ``given``.

        Uses the linear-time reachability ("Bayes-ball") algorithm: traverse
        (node, direction) states from ``x``; ``x`` and ``y`` are d-separated
        iff no node of ``y`` is reached through an active trail.
        """
        xs = {x} if x in self._parents else set(x)
        ys = {y} if y in self._parents else set(y)
        zs = set(given)
        for s in xs | ys | zs:
            self._check(s)
        if xs & ys:
            return False

        # Ancestors of the evidence set, used to decide collider activation.
        z_anc = set(zs)
        for z in zs:
            z_anc |= self.ancestors(z)

        # States: (node, 'up') entered from a child; (node, 'down') from a parent.
        start = [(n, "up") for n in xs]
        visited: set[tuple[Node, str]] = set()
        while start:
            node, direction = start.pop()
            if (node, direction) in visited:
                continue
            visited.add((node, direction))
            if node not in zs and node in ys:
                return False
            if direction == "up" and node not in zs:
                for p in self._parents[node]:
                    start.append((p, "up"))
                for c in self._children[node]:
                    start.append((c, "down"))
            elif direction == "down":
                if node not in zs:
                    for c in self._children[node]:
                        start.append((c, "down"))
                if node in z_anc:  # collider with observed descendant: trail opens upward
                    for p in self._parents[node]:
                        start.append((p, "up"))
        return True

    # ------------------------------------------------------------------ #
    # Copies / conversions / comparisons
    # ------------------------------------------------------------------ #

    def copy(self) -> "DAG":
        return self._induced(self._parents)

    def subgraph(self, nodes: Iterable[Node]) -> "DAG":
        """Induced subgraph on ``nodes``."""
        keep = set(nodes)
        for n in keep:
            self._check(n)
        return self._induced(keep)

    def _induced(self, keep) -> "DAG":
        """The graph induced on ``keep``, copied from the adjacency maps.

        A copy or induced subgraph of an acyclic graph is acyclic, so no
        edge needs :meth:`add_edge`'s cycle search.  Node, edge and
        ``parents()`` order equal those of ``DAG(nodes, edges)`` over the
        kept nodes and edges: parents come out in node order.
        """
        out = DAG()
        out._parents = {n: {} for n in self._parents if n in keep}
        out._children = {n: {} for n in out._parents}
        for u, children in out._children.items():
            for v in self._children[u]:
                if v in keep:
                    children[v] = None
                    out._parents[v][u] = None
        return out

    def to_networkx(self):
        """Return an equivalent :class:`networkx.DiGraph`."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(self.edges)
        return g

    def adjacency_matrix(self, order: "Iterable[Node] | None" = None) -> np.ndarray:
        """0/1 matrix with ``A[i, j] == 1`` iff ``order[i] -> order[j]``."""
        names = list(order) if order is not None else list(self.nodes)
        index = {n: i for i, n in enumerate(names)}
        mat = np.zeros((len(names), len(names)), dtype=int)
        for u, v in self.edges:
            if u in index and v in index:
                mat[index[u], index[v]] = 1
        return mat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return set(self.nodes) == set(other.nodes) and set(self.edges) == set(other.edges)

    def __repr__(self) -> str:
        return f"DAG(n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    def __iter__(self) -> Iterator[Node]:
        return iter(self._parents)

    # ------------------------------------------------------------------ #
    # Random generation (used by Fig. 5's "randomly generated KERT-BNs")
    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls,
        nodes: Iterable[Node],
        edge_prob: float,
        rng: np.random.Generator,
        max_parents: "int | None" = None,
    ) -> "DAG":
        """Sample a random DAG by orienting edges along a random order.

        Each pair (earlier, later) in a random permutation receives an edge
        with probability ``edge_prob``, optionally capped at ``max_parents``
        incoming edges per node.
        """
        names = list(nodes)
        if not 0.0 <= edge_prob <= 1.0:
            raise GraphError(f"edge_prob must be in [0, 1], got {edge_prob}")
        perm = [names[i] for i in rng.permutation(len(names))]
        dag = cls(nodes=names)
        for j in range(1, len(perm)):
            candidates = perm[:j]
            mask = rng.random(len(candidates)) < edge_prob
            chosen = [c for c, m in zip(candidates, mask) if m]
            if max_parents is not None and len(chosen) > max_parents:
                idx = rng.choice(len(chosen), size=max_parents, replace=False)
                chosen = [chosen[i] for i in sorted(idx)]
            for c in chosen:
                dag.add_edge(c, perm[j])
        return dag
