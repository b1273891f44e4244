"""Decomposable structure-learning scores.

K2 (and any order-based search) needs a *local* score
``score(X_i, parent_set)`` that the whole-graph score decomposes over.
Two are provided:

- :func:`gaussian_bic_local` — Gaussian BIC, used when NRT-BN learns a
  structure from the paper's continuous simulation data;
- :func:`discrete_k2_local` — the Cooper–Herskovits K2 metric (uniform
  Dirichlet prior), the score of the original K2 paper the authors cite.

All return *log* scores; larger is better.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np
from scipy.special import gammaln

from repro.bn.data import Dataset
from repro.exceptions import LearningError

LocalScore = Callable[[str, tuple[str, ...]], float]

_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_bic_local(
    data: Dataset,
    variable: str,
    parents: tuple[str, ...],
    ridge: float = 1e-10,
    min_variance: float = 1e-12,
) -> float:
    """Gaussian BIC of regressing ``variable`` on ``parents``.

    ``max-loglik - (k/2)·ln N`` with ``k = |parents| + 2`` (intercept,
    coefficients, variance).
    """
    y = np.asarray(data[variable], dtype=float)
    n = y.size
    if n < 2:
        raise LearningError("need at least 2 rows for a Gaussian score")
    if parents:
        X = np.column_stack(
            [np.ones(n)] + [np.asarray(data[p], dtype=float) for p in parents]
        )
        gram = X.T @ X + ridge * np.eye(X.shape[1])
        beta = np.linalg.solve(gram, X.T @ y)
        resid = y - X @ beta
    else:
        resid = y - y.mean()
    var = max(float(np.mean(resid * resid)), min_variance)
    loglik = -0.5 * n * (_LOG_2PI + math.log(var) + 1.0)
    k = len(parents) + 2
    return loglik - 0.5 * k * math.log(n)


def _counts(
    data: Dataset,
    variable: str,
    cardinality: int,
    parents: tuple[str, ...],
    parent_cards: tuple[int, ...],
) -> np.ndarray:
    """(cardinality, n_parent_configs) count matrix, vectorized."""
    child = np.asarray(data[variable], dtype=int)
    n_configs = int(np.prod(parent_cards)) if parents else 1
    counts = np.zeros((cardinality, n_configs))
    if parents:
        config = np.zeros(child.size, dtype=np.int64)
        for p, c in zip(parents, parent_cards):
            config = config * c + np.asarray(data[p], dtype=int)
        np.add.at(counts, (child, config), 1.0)
    else:
        np.add.at(counts, (child, np.zeros(child.size, dtype=int)), 1.0)
    return counts


def discrete_k2_local(
    data: Dataset,
    variable: str,
    cardinality: int,
    parents: tuple[str, ...],
    parent_cards: tuple[int, ...],
) -> float:
    """Cooper–Herskovits K2 metric (log), uniform Dirichlet prior α=1.

    ``Σ_j [ lnΓ(r) − lnΓ(r + N_j) + Σ_k lnΓ(1 + N_jk) ]`` for child
    cardinality ``r``, parent configurations ``j`` and child states ``k``.
    """
    counts = _counts(data, variable, cardinality, parents, parent_cards)
    r = cardinality
    n_j = counts.sum(axis=0)
    score = float(
        np.sum(gammaln(r) - gammaln(r + n_j)) + np.sum(gammaln(counts + 1.0))
    )
    return score


class ScoreCache:
    """Memoized local-score evaluator.

    K2 re-evaluates many overlapping ``(variable, parent-set)`` pairs when
    run with random-restart orderings (Section 5.3); caching makes the
    restarts nearly free on repeats.  The cache also counts evaluations,
    which the Fig. 4 benchmark reports as NRT-BN's structure-search cost.
    """

    def __init__(self, local_score: Callable[..., float]):
        self._score = local_score
        self._cache: dict[tuple[str, frozenset], float] = {}
        self.n_evaluations = 0
        self.n_hits = 0

    def __call__(self, variable: str, parents: Iterable[str], *args) -> float:
        key = (variable, frozenset(parents))
        if key in self._cache:
            self.n_hits += 1
            return self._cache[key]
        self.n_evaluations += 1
        value = self._score(variable, tuple(parents), *args)
        self._cache[key] = value
        return value
