"""Maximum-likelihood (and Dirichlet-smoothed) parameter estimation.

Each ``fit_*`` function is a *local* computation over the child column
and its parent columns only — the decentralizable unit of Section 3.4.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.bn.cpd.linear_gaussian import LinearGaussianCPD
from repro.bn.cpd.tabular import TabularCPD
from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.network import GaussianBayesianNetwork
from repro.exceptions import LearningError


class DesignMoments:
    """A design ``Z = [1, X_1..X_m]`` with its moment matrix ``ZᵀZ``.

    Formed once per window, it fits every linear-Gaussian CPD over those
    columns from index blocks ``[0, Φ(X_i)…, X_i]``: :meth:`solve` reads
    the ``ZᵀZ`` entries of a stack of blocks that share a parent count
    and solves them together, instead of restacking and re-multiplying
    the columns per CPD; :meth:`cpd` then floors one CPD's variance.
    Column 0 is the intercept; column ``j + 1`` holds ``columns[j]``.
    """

    def __init__(self, columns: Sequence[np.ndarray]):
        n = len(columns[0])
        self.design = np.empty((n, len(columns) + 1))
        self.design[:, 0] = 1.0
        for j, col in enumerate(columns, start=1):
            self.design[:, j] = col
        self.gram = self.design.T @ self.design
        self.variances = None
        if n:
            # Two-pass variances: row 0 of ZᵀZ holds the column sums.
            centered = self.design - self.gram[0] / n
            self.variances = np.einsum("ij,ij->j", centered, centered) / n

    def solve(
        self, blocks: np.ndarray, ridge: float = 1e-10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Least squares for an ``(m, k + 2)`` stack of blocks that all
        have ``k`` parents: one ``np.linalg.solve`` on the ``(m, k + 1,
        k + 1)`` ridged ``ZᵀZ`` blocks, and one batched matmul for the
        explicit residuals over the blocks' design columns.

        Returns each block's ``[intercept, coefficients…]`` as an
        ``(m, k + 1)`` array and its child's mean squared residual.  A
        root (``k = 0``) gets the child's mean and its variance.  Every
        block is solved on its own, so a NaN in one block's columns
        leaves the other blocks' results untouched.
        """
        n = self.design.shape[0]
        if n == 0:
            raise LearningError("no rows to fit")
        rows, child = blocks[:, :-1], blocks[:, -1]
        if rows.shape[1] == 1:
            return self.gram[0, child, None] / n, self.variances[child]
        g = self.gram[rows[:, :, None], blocks[:, None, :]]
        diagonal = np.arange(rows.shape[1])
        g[:, diagonal, diagonal] += ridge
        beta = np.linalg.solve(g[:, :, :-1], g[:, :, -1:])
        fitted = np.swapaxes(beta, 1, 2) @ self.design.T[rows]
        resid = self.design.T[child] - fitted[:, 0]
        mean_square = (resid[:, None] @ resid[:, :, None])[:, 0, 0] / n
        return beta[:, :, 0], mean_square

    def cpd(
        self,
        variable: str,
        parents: tuple[str, ...],
        child: int,
        beta: np.ndarray,
        mean_square: float,
        min_variance: float = 1e-9,
        relative_variance_floor: float = 1e-3,
    ) -> LinearGaussianCPD:
        """One CPD from its row of :meth:`solve`: the mean squared
        residual floored as :func:`fit_linear_gaussian` documents."""
        marginal_var = float(self.variances[child])
        floor = max(min_variance, relative_variance_floor * marginal_var)
        var = max(float(mean_square), floor)
        return LinearGaussianCPD(variable, float(beta[0]), beta[1:], var, parents)

    def fit(
        self,
        block: np.ndarray,
        variable: str,
        parents: tuple[str, ...] = (),
        min_variance: float = 1e-9,
        ridge: float = 1e-10,
        relative_variance_floor: float = 1e-3,
    ) -> LinearGaussianCPD:
        """Fit ``variable`` from its integer-array block of design columns
        ``[0, parent columns…, child column]``: the one-block case of
        :meth:`solve` and :meth:`cpd`.

        See :func:`fit_linear_gaussian` for the ridge and the two variance
        floors.
        """
        block = np.asarray(block)
        beta, mean_square = self.solve(block[None], ridge)
        return self.cpd(
            variable, parents, block[-1], beta[0], mean_square[0],
            min_variance, relative_variance_floor,
        )


def fit_linear_gaussian(
    data: Dataset,
    variable: str,
    parents: Iterable[str] = (),
    min_variance: float = 1e-9,
    ridge: float = 1e-10,
    relative_variance_floor: float = 1e-3,
) -> LinearGaussianCPD:
    """Least-squares fit of ``X | parents ~ N(b0 + w·pa, σ²)``.

    A vanishing ``ridge`` keeps the normal equations solvable when parent
    columns are collinear (e.g. two services whose delays are perfectly
    correlated in a short window).  σ² is floored at ``min_variance`` and
    at ``relative_variance_floor`` times the child's marginal variance:
    with tiny training windows a regression on several parents can
    interpolate the sample almost exactly, and an (effectively) zero
    residual variance would make the model infinitely confident — and
    catastrophically wrong on test data.  A root node gets the sample
    mean and variance.

    Uses only the child's and the parents' columns, through the same
    :class:`DesignMoments` solver that fits a whole window's CPDs.
    """
    parents = tuple(parents)
    columns = [np.asarray(data[p], dtype=float) for p in parents]
    columns.append(np.asarray(data[variable], dtype=float))
    return DesignMoments(columns).fit(
        np.arange(len(columns) + 1),
        variable,
        parents,
        min_variance=min_variance,
        ridge=ridge,
        relative_variance_floor=relative_variance_floor,
    )


def fit_tabular(
    data: Dataset,
    variable: str,
    cardinality: int,
    parents: Iterable[str] = (),
    parent_cardinalities: Iterable[int] = (),
    alpha: float = 1.0,
) -> TabularCPD:
    """Dirichlet-smoothed count estimate of a discrete CPD.

    ``alpha`` is the symmetric pseudo-count (``alpha=0`` is pure MLE; the
    default 1 is the Bayesian/Laplace estimate of the paper's
    reference [14]).  Counting is vectorized with ``np.add.at`` on the
    raveled (child, parent-config) index.
    """
    parents = tuple(parents)
    parent_cards = tuple(int(c) for c in parent_cardinalities)
    if len(parents) != len(parent_cards):
        raise LearningError("parents and parent_cardinalities length mismatch")
    cardinality = int(cardinality)
    child = np.asarray(data[variable], dtype=int)
    if child.size and (child.min() < 0 or child.max() >= cardinality):
        raise LearningError(
            f"{variable!r} has states outside [0, {cardinality})"
        )
    n_configs = int(np.prod(parent_cards)) if parents else 1
    counts = np.full((cardinality, n_configs), float(alpha))
    if parents:
        config = np.zeros(child.size, dtype=np.int64)
        for p, c in zip(parents, parent_cards):
            col = np.asarray(data[p], dtype=int)
            if col.size and (col.min() < 0 or col.max() >= c):
                raise LearningError(f"parent {p!r} has states outside [0, {c})")
            config = config * c + col
        np.add.at(counts, (child, config), 1.0)
    else:
        np.add.at(counts, (child, np.zeros(child.size, dtype=int)), 1.0)
    totals = counts.sum(axis=0)
    if alpha == 0 and np.any(totals == 0):
        # Unseen parent configurations get a uniform column under pure MLE.
        counts[:, totals == 0] = 1.0
        totals = counts.sum(axis=0)
    table = counts / totals
    return TabularCPD(
        variable,
        cardinality,
        table.reshape((cardinality, *parent_cards)),
        parents,
        parent_cards,
    )


def fit_gaussian_network(
    dag: DAG, data: Dataset, min_variance: float = 1e-9
) -> GaussianBayesianNetwork:
    """Fit every node of ``dag`` with a linear-Gaussian CPD."""
    cpds = [
        fit_linear_gaussian(data, str(node), tuple(map(str, dag.parents(node))),
                            min_variance=min_variance)
        for node in dag.nodes
    ]
    return GaussianBayesianNetwork(dag, cpds)

