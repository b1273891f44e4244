"""Workflow-given (noisy-)deterministic CPDs — the paper's Eq. 4.

The heavyweight CPD ``P(D | X_1..X_n)`` need not be learned when precise
workflow knowledge supplies a deterministic link ``D = f(X)`` (Section
3.3).  Two realizations:

- :class:`DeterministicCPD` — discrete: probability mass ``1 - l`` on the
  bin containing ``f(x)`` and leak ``l`` spread over the other bins, for
  a leak probability ``l`` capturing measurement noise.
- :class:`NoisyDeterministicCPD` — continuous: ``D = f(X) + N(0, σ²)``.
  Matlab BNT could not express nonlinear deterministic CPDs (paper,
  Section 5), which is why the paper fell back to discrete models there;
  this class removes that restriction while keeping D's "learning" to a
  single O(N) residual-variance pass.

The ``function`` argument is any callable mapping a
``{name: (n,) ndarray}`` dict to an ``(n,)`` ndarray — in practice a
:class:`repro.workflow.response_time.ResponseTimeFunction`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.bn.cpd.base import CPD
from repro.bn.factors import DiscreteFactor
from repro.exceptions import CPDError

_LOG_2PI = math.log(2.0 * math.pi)

ArrayFunction = Callable[[Mapping[str, np.ndarray]], np.ndarray]


class DeterministicCPD(CPD):
    """Discrete Eq.-4 CPD: ``P(D = f(X) | X) = 1 - l``, leak ``l``.

    Parents and child are bin indices; ``parent_centers`` maps each
    parent's state index to a representative (bin-center) value so that
    ``f`` can be evaluated in the original continuous units, and
    ``child_edges`` re-bins the result.
    """

    def __init__(
        self,
        variable: str,
        function: ArrayFunction,
        parents: Iterable[str],
        parent_centers: Mapping[str, np.ndarray],
        child_edges: np.ndarray,
        leak: float = 0.0,
        leak_decay: float = 0.5,
        transition: "np.ndarray | None" = None,
    ):
        super().__init__(variable, tuple(parents))
        if not self.parents:
            raise CPDError("a deterministic CPD needs at least one parent")
        if not 0.0 <= leak < 1.0:
            raise CPDError(f"leak must be in [0, 1), got {leak}")
        if not 0.0 < leak_decay <= 1.0:
            raise CPDError(f"leak_decay must be in (0, 1], got {leak_decay}")
        self.function = function
        self.leak = float(leak)
        self.leak_decay = float(leak_decay)
        self.child_edges = np.asarray(child_edges, dtype=float)
        if self.child_edges.ndim != 1 or self.child_edges.size < 2:
            raise CPDError("child_edges must be a 1-D array of >= 2 edges")
        if np.any(np.diff(self.child_edges) <= 0):
            raise CPDError("child_edges must be strictly increasing")
        self.cardinality = self.child_edges.size - 1
        self.parent_centers = {}
        for p in self.parents:
            if p not in parent_centers:
                raise CPDError(f"missing parent_centers for {p!r}")
            centers = np.asarray(parent_centers[p], dtype=float)
            if centers.ndim != 1 or centers.size < 1:
                raise CPDError(f"parent_centers[{p!r}] must be a 1-D array")
            self.parent_centers[p] = centers
        if transition is not None:
            t = np.asarray(transition, dtype=float)
            if t.shape != (self.cardinality, self.cardinality):
                raise CPDError(
                    f"transition must be {(self.cardinality,) * 2}, got {t.shape}"
                )
            if np.any(t < 0) or not np.allclose(t.sum(axis=1), 1.0, atol=1e-8):
                raise CPDError("transition rows must be pmfs")
            self._transition = t
        else:
            self._transition = self._build_transition()

    def _build_transition(self) -> np.ndarray:
        """``T[k, j] = P(D = j | predicted bin k)``.

        The hit bin keeps mass ``1 - l``; the leak ``l`` spreads over the
        other bins with geometric decay in bin distance (``leak_decay=1``
        recovers the uniform spread).  Monitoring noise perturbs ``f``
        slightly, so real misses land next door far more often than far
        away — the decayed spread encodes that without learning anything.
        """
        m = self.cardinality
        if m == 1:
            return np.ones((1, 1))
        k = np.arange(m)
        dist = np.abs(k[:, None] - k[None, :]).astype(float)
        weights = np.where(dist > 0, self.leak_decay ** (dist - 1.0), 0.0)
        z = weights.sum(axis=1, keepdims=True)
        table = self.leak * weights / z
        table[k, k] = 1.0 - self.leak
        return table

    @property
    def parent_cardinalities(self) -> tuple[int, ...]:
        return tuple(self.parent_centers[p].size for p in self.parents)

    @property
    def n_parameters(self) -> int:
        # Only the leak calibration is free; f is given by the workflow.
        # (m·(m−1) for a calibrated confusion matrix, 1 for a scalar leak
        # — both independent of the number of parents, which is the point.)
        return self.cardinality * (self.cardinality - 1)

    # ------------------------------------------------------------------ #

    def _child_bin_for_states(self, parent_states: Mapping[str, np.ndarray]) -> np.ndarray:
        """Map parent state indices to the child's bin of ``f``(centers)."""
        values = {
            p: self.parent_centers[p][np.asarray(parent_states[p], dtype=int)]
            for p in self.parents
        }
        fx = np.asarray(self.function(values), dtype=float)
        return np.digitize(fx, self.child_edges[1:-1])

    def prob_vector(self, parent_states: Mapping[str, int]) -> np.ndarray:
        """Full conditional pmf of the child at one parent configuration."""
        one = {p: np.asarray([parent_states[p]]) for p in self.parents}
        k = int(self._child_bin_for_states(one)[0])
        return self._transition[k].copy()

    def log_likelihood(self, data) -> np.ndarray:
        child = np.asarray(data[self.variable], dtype=int)
        k = self._child_bin_for_states({p: data[p] for p in self.parents})
        probs = self._transition[k, child]
        with np.errstate(divide="ignore"):
            return np.log(probs)

    def sample(self, parent_values, n: int, rng: np.random.Generator) -> np.ndarray:
        k = self._child_bin_for_states(parent_values)
        if self.leak == 0.0 or self.cardinality == 1:
            return k
        cond = self._transition[k]  # (n, card)
        u = rng.random(n)
        cum = np.cumsum(cond, axis=1)
        return (u[:, None] < cum).argmax(axis=1)

    def to_factor(self, max_size: int = 2_000_000) -> DiscreteFactor:
        """Materialize φ(D, parents) — only feasible for small parent sets."""
        cards = self.parent_cardinalities
        size = self.cardinality * int(np.prod(cards))
        if size > max_size:
            raise CPDError(
                f"deterministic CPD table would have {size} entries; "
                f"refusing to materialize (limit {max_size})"
            )
        grids = np.meshgrid(*[np.arange(c) for c in cards], indexing="ij")
        flat_states = {p: g.ravel() for p, g in zip(self.parents, grids)}
        k = self._child_bin_for_states(flat_states)  # (n_configs,)
        table = self._transition[k].T  # (card, n_configs)
        return DiscreteFactor(
            (self.variable, *self.parents),
            (self.cardinality, *cards),
            table.reshape((self.cardinality, *cards)),
        )


class NoisyDeterministicCPD(CPD):
    """Continuous Eq.-4 analogue: ``X = f(parents) + N(0, σ²)``."""

    def __init__(
        self,
        variable: str,
        function: ArrayFunction,
        parents: Iterable[str],
        variance: float = 1e-6,
    ):
        super().__init__(variable, tuple(parents))
        if not self.parents:
            raise CPDError("a deterministic CPD needs at least one parent")
        if not variance > 0:
            raise CPDError(f"variance must be > 0, got {variance}")
        self.function = function
        self.variance = float(variance)

    @property
    def n_parameters(self) -> int:
        # Only the residual variance is free; f comes from the workflow.
        return 1

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def predict(self, parent_values: Mapping[str, np.ndarray]) -> np.ndarray:
        """Deterministic part ``f``(parents), vectorized."""
        return np.asarray(
            self.function({p: np.asarray(parent_values[p], dtype=float)
                           for p in self.parents}),
            dtype=float,
        )

    def log_likelihood(self, data) -> np.ndarray:
        x = np.asarray(data[self.variable], dtype=float)
        mu = self.predict({p: data[p] for p in self.parents})
        resid = x - mu
        return -0.5 * (_LOG_2PI + math.log(self.variance) + resid * resid / self.variance)

    def sample(self, parent_values, n: int, rng: np.random.Generator) -> np.ndarray:
        mu = self.predict(parent_values)
        return mu + rng.normal(0.0, self.std, size=n)

    @classmethod
    def fit_variance(
        cls,
        variable: str,
        function: ArrayFunction,
        parents: Iterable[str],
        data,
        min_variance: float = 1e-9,
    ) -> "NoisyDeterministicCPD":
        """One-pass residual-variance estimate — D's entire "learning".

        This is the cheap O(N) substitute for the heavyweight
        ``P(D | X_1..X_n)`` learning that Eq. 4 eliminates.
        """
        parents = tuple(parents)
        cpd = cls(variable, function, parents, variance=1.0)
        mu = cpd.predict({p: data[p] for p in parents})
        resid = np.asarray(data[variable], dtype=float) - mu
        cpd.variance = max(float(np.mean(resid * resid)), min_variance)
        return cpd
