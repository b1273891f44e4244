"""Linear-Gaussian conditional probability distributions.

``X | parents = u  ~  N(intercept + coeffs · u, variance)`` — the CPD
family of the paper's *continuous* KERT-BN / NRT-BN simulation study
(Section 4.1).  Few parameters mean fast convergence with small training
sets, which is exactly the property the paper exploits for frequently
rebuilt models.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.bn.cpd.base import CPD
from repro.exceptions import CPDError

_LOG_2PI = math.log(2.0 * math.pi)


class LinearGaussianCPD(CPD):
    """Gaussian child with mean linear in its parents."""

    def __init__(
        self,
        variable: str,
        intercept: float,
        coefficients: Iterable[float] = (),
        variance: float = 1.0,
        parents: Iterable[str] = (),
    ):
        super().__init__(variable, tuple(parents))
        self.intercept = float(intercept)
        if not isinstance(coefficients, np.ndarray):
            coefficients = list(coefficients)
        self.coefficients = np.array(coefficients, dtype=float)
        if self.coefficients.shape != (len(self.parents),):
            raise CPDError(
                f"{variable!r}: {len(self.parents)} parents but "
                f"{self.coefficients.size} coefficients"
            )
        if not variance > 0:
            raise CPDError(f"{variable!r}: variance must be > 0, got {variance}")
        self.variance = float(variance)

    # ------------------------------------------------------------------ #

    @property
    def n_parameters(self) -> int:
        # intercept + one coefficient per parent + variance
        return 2 + len(self.parents)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def _means(self, data) -> np.ndarray:
        """Vectorized conditional means for a whole dataset."""
        n = data.n_rows
        mu = np.full(n, self.intercept, dtype=float)
        for p, w in zip(self.parents, self.coefficients):
            mu += w * np.asarray(data[p], dtype=float)
        return mu

    def log_likelihood(self, data) -> np.ndarray:
        x = np.asarray(data[self.variable], dtype=float)
        mu = self._means(data)
        resid = x - mu
        return -0.5 * (_LOG_2PI + math.log(self.variance) + resid * resid / self.variance)

    def sample(self, parent_values, n: int, rng: np.random.Generator) -> np.ndarray:
        mu = np.full(n, self.intercept, dtype=float)
        for p, w in zip(self.parents, self.coefficients):
            mu = mu + w * np.asarray(parent_values[p], dtype=float)
        return mu + rng.normal(0.0, self.std, size=n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearGaussianCPD):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.parents == other.parents
            and math.isclose(self.intercept, other.intercept, rel_tol=1e-9, abs_tol=1e-12)
            and np.allclose(self.coefficients, other.coefficients)
            and math.isclose(self.variance, other.variance, rel_tol=1e-9, abs_tol=1e-12)
        )
