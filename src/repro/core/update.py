"""Sequential model *update* — the alternative Section 2 argues against.

The paper: "a strategy where models are updated with the latest data may
appear less extreme [than full reconstruction], [but] the disperse of
old data is often not possible under current statistical frameworks …
out-of-date information lingers in the updated model and adversely
impacts its accuracy."

This module makes that argument runnable.  :class:`SequentialGaussianUpdater`
maintains linear-Gaussian CPD parameters from accumulated sufficient
statistics (optionally with exponential forgetting, the standard
mitigation): new batches fold in, old data never leaves (``decay=1``).
The ablation benchmark ``benchmarks/test_ablation_update_vs_reconstruct.py``
pits sequential updating against the paper's windowed reconstruction
under environment drift.
"""

from __future__ import annotations

import numpy as np

from repro.bn.cpd import LinearGaussianCPD
from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.network import GaussianBayesianNetwork
from repro.exceptions import LearningError


class SequentialGaussianUpdater:
    """Per-node linear-Gaussian CPDs from accumulated moment statistics.

    For node ``X`` with parents ``U``: keep ``n``, ``Σz`` and ``Σzzᵀ`` for
    ``z = (1, U, X)``; the regression coefficients and residual variance
    fall out of the normal equations at any time.  ``decay`` in (0, 1]
    multiplies the accumulated statistics before each new batch
    (``decay=1`` = the pure sequential update of Spiegelhalter & Lauritzen
    the paper cites; ``<1`` = exponential forgetting).
    """

    def __init__(self, dag: DAG, decay: float = 1.0, min_variance: float = 1e-9,
                 ridge: float = 1e-8):
        if not 0.0 < decay <= 1.0:
            raise LearningError(f"decay must be in (0, 1], got {decay}")
        self.dag = dag.copy()
        self.decay = float(decay)
        self.min_variance = float(min_variance)
        self.ridge = float(ridge)
        self._stats: dict[str, dict] = {}
        for node in dag.nodes:
            node = str(node)
            k = 1 + len(dag.parents(node)) + 1  # intercept + parents + child
            self._stats[node] = {
                "n": 0.0,
                "s1": np.zeros(k),
                "s2": np.zeros((k, k)),
            }

    def _design(self, node: str, data: Dataset) -> np.ndarray:
        parents = tuple(map(str, self.dag.parents(node)))
        cols = [np.ones(data.n_rows)]
        cols += [np.asarray(data[p], dtype=float) for p in parents]
        cols.append(np.asarray(data[node], dtype=float))
        return np.column_stack(cols)

    def ingest(self, data: Dataset) -> None:
        """Fold one batch into every node's statistics."""
        for node, st in self._stats.items():
            z = self._design(node, data)
            st["n"] = self.decay * st["n"] + z.shape[0]
            st["s1"] = self.decay * st["s1"] + z.sum(axis=0)
            st["s2"] = self.decay * st["s2"] + z.T @ z

    def cpd(self, node: str) -> LinearGaussianCPD:
        """Current CPD implied by the accumulated statistics."""
        st = self._stats[str(node)]
        if st["n"] <= 1:
            raise LearningError(f"no data accumulated for {node!r}")
        parents = tuple(map(str, self.dag.parents(node)))
        k = 1 + len(parents)
        s2 = st["s2"]
        a = s2[:k, :k] + self.ridge * np.eye(k)  # design gram
        b = s2[:k, k]                            # design · child
        beta = np.linalg.solve(a, b)
        # Residual second moment: E[x²] − 2βᵀb/n + βᵀAβ/n.
        xx = s2[k, k]
        rss = xx - 2 * beta @ b + beta @ (s2[:k, :k] @ beta)
        var = max(float(rss / st["n"]), self.min_variance)
        return LinearGaussianCPD(str(node), float(beta[0]), beta[1:], var, parents)

    def network(self) -> GaussianBayesianNetwork:
        return GaussianBayesianNetwork(
            self.dag, [self.cpd(str(n)) for n in self.dag.nodes]
        )
