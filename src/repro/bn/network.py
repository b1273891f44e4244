"""Bayesian-network containers: discrete, Gaussian, and hybrid.

A network is a :class:`~repro.bn.dag.DAG` plus one CPD per node whose
parent set matches the DAG.  The base class provides everything that only
needs the CPD interface — joint likelihood (the paper's accuracy metric),
forward sampling, parameter counting — while the subclasses add the
inference entry points appropriate to their CPD family.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from repro.bn.cpd.base import CPD
from repro.bn.cpd.deterministic import DeterministicCPD, NoisyDeterministicCPD
from repro.bn.cpd.linear_gaussian import LinearGaussianCPD
from repro.bn.cpd.tabular import TabularCPD
from repro.bn.dag import DAG
from repro.bn.data import Dataset
from repro.bn.inference.gaussian import (
    condition_gaussian,
    joint_gaussian,
    joint_gaussian_of,
)
from repro.exceptions import CPDError, InferenceError
from repro.utils.rng import ensure_rng

_LOG10 = math.log(10.0)


class BayesianNetwork:
    """A DAG with a CPD attached to every node."""

    def __init__(self, dag: DAG, cpds: Iterable[CPD]):
        self.dag = dag.copy()
        self._cpds: dict[str, CPD] = {}
        for cpd in cpds:
            if cpd.variable in self._cpds:
                raise CPDError(f"duplicate CPD for {cpd.variable!r}")
            self._cpds[cpd.variable] = cpd
        missing = set(self.dag.nodes) - set(self._cpds)
        if missing:
            raise CPDError(f"nodes without CPDs: {sorted(map(str, missing))}")
        extra = set(self._cpds) - set(self.dag.nodes)
        if extra:
            raise CPDError(f"CPDs for unknown nodes: {sorted(extra)}")
        for node in self.dag.nodes:
            cpd = self._cpds[node]
            if set(cpd.parents) != set(self.dag.parents(node)):
                raise CPDError(
                    f"CPD parents {cpd.parents} for {node!r} do not match "
                    f"DAG parents {self.dag.parents(node)}"
                )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(str(n) for n in self.dag.nodes)

    def cpd(self, node: str) -> CPD:
        try:
            return self._cpds[node]
        except KeyError:
            raise CPDError(f"no CPD for node {node!r}") from None

    @property
    def cpds(self) -> tuple[CPD, ...]:
        return tuple(self._cpds[n] for n in self.dag.nodes)

    @property
    def n_parameters(self) -> int:
        """Total free parameters — the BIC complexity term."""
        return sum(c.n_parameters for c in self._cpds.values())

    # ------------------------------------------------------------------ #
    # Likelihood (the paper's data-fitting accuracy metric, Sec. 4.1)
    # ------------------------------------------------------------------ #

    def per_row_log_likelihood(self, data: Dataset) -> np.ndarray:
        """Natural-log joint density/mass of each row."""
        total = np.zeros(data.n_rows)
        for node in self.dag.nodes:
            total += self._cpds[node].log_likelihood(data)
        return total

    def log_likelihood(self, data: Dataset) -> float:
        """``ln p(data | BN)`` summed over rows."""
        return float(self.per_row_log_likelihood(data).sum())

    def log10_likelihood(self, data: Dataset) -> float:
        """``log10 p(data | BN)`` — exactly the paper's reported metric."""
        return self.log_likelihood(data) / _LOG10

    # ------------------------------------------------------------------ #
    # Forward sampling
    # ------------------------------------------------------------------ #

    def sample(self, n: int, rng=None) -> Dataset:
        """Draw ``n`` joint samples by ancestral (topological) sampling."""
        rng = ensure_rng(rng)
        if n <= 0:
            raise InferenceError(f"sample size must be positive, got {n}")
        drawn: dict[str, np.ndarray] = {}
        for node in self.dag.topological_order():
            cpd = self._cpds[node]
            parent_values = {p: drawn[p] for p in cpd.parents}
            drawn[str(node)] = cpd.sample(parent_values, n, rng)
        # Return columns in the DAG's node order for stable downstream use.
        return Dataset({str(node): drawn[str(node)] for node in self.dag.nodes})

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_nodes={self.dag.n_nodes}, "
            f"n_edges={self.dag.n_edges}, n_parameters={self.n_parameters})"
        )


class DiscreteBayesianNetwork(BayesianNetwork):
    """All-discrete network (TabularCPD / DeterministicCPD nodes)."""

    def __init__(self, dag: DAG, cpds: Iterable[CPD]):
        super().__init__(dag, cpds)
        for cpd in self._cpds.values():
            if not isinstance(cpd, (TabularCPD, DeterministicCPD)):
                raise CPDError(
                    f"{type(cpd).__name__} for {cpd.variable!r} is not discrete"
                )
        self._check_cardinalities()
        self._compiled = None

    def _check_cardinalities(self) -> None:
        cards = self.cardinalities
        for cpd in self._cpds.values():
            parent_cards = cpd.parent_cardinalities
            for p, c in zip(cpd.parents, parent_cards):
                if cards[p] != c:
                    raise CPDError(
                        f"CPD for {cpd.variable!r} expects parent {p!r} with "
                        f"cardinality {c}, but {p!r} has cardinality {cards[p]}"
                    )

    @property
    def cardinalities(self) -> dict[str, int]:
        return {c.variable: c.cardinality for c in self._cpds.values()}

    def compiled(self):
        """The cached compile-once inference engine for this network.

        Factors are extracted and per-signature query plans memoized on
        first use; see
        :class:`repro.bn.inference.engine.CompiledDiscreteModel`.  The
        engine assumes the network is immutable (every builder in this
        codebase constructs fresh CPD objects, so this holds).
        """
        if self._compiled is None:
            from repro.bn.inference.engine import CompiledDiscreteModel

            self._compiled = CompiledDiscreteModel(self)
        return self._compiled

    def query(self, variables: Iterable[str], evidence: "Mapping[str, int] | None" = None):
        """Posterior marginal factor over ``variables`` given ``evidence``.

        Fast path: answered by the cached compiled engine, which matches
        scratch variable elimination
        (:func:`repro.bn.inference.variable_elimination.query`) exactly —
        the cross-check tests assert agreement to 1e-9.
        """
        return self.compiled().query(variables, evidence or {})

    def query_batch(
        self, variables: Iterable[str], columns: Mapping[str, Iterable[int]]
    ):
        """Vectorized posterior over ``variables`` for N evidence rows.

        ``columns`` maps each evidence variable to N integer states; see
        :meth:`repro.bn.inference.engine.CompiledDiscreteModel.query_batch`.
        Returns a float64 ``(N, ...)`` array of normalized posteriors.
        """
        return self.compiled().query_batch(variables, columns)


class GaussianBayesianNetwork(BayesianNetwork):
    """All-linear-Gaussian network; the joint is multivariate normal."""

    def __init__(self, dag: DAG, cpds: Iterable[CPD]):
        super().__init__(dag, cpds)
        for cpd in self._cpds.values():
            if not isinstance(cpd, LinearGaussianCPD):
                raise CPDError(
                    f"{type(cpd).__name__} for {cpd.variable!r} is not linear-Gaussian"
                )

    def to_joint_gaussian(self):
        """Return ``(names, mean, cov)`` of the equivalent joint MVN."""
        return joint_gaussian(self)


class HybridResponseNetwork(BayesianNetwork):
    """Gaussian service nodes plus a (noisy-)deterministic response node.

    This is the continuous KERT-BN of Section 4: elapsed-time nodes carry
    linear-Gaussian CPDs learned from data, while the response node ``D``
    carries the workflow-given CPD of Eq. 4 (here ``f(X) + N(0, σ²)``).
    """

    def __init__(self, dag: DAG, cpds: Iterable[CPD], response: str):
        super().__init__(dag, cpds)
        self.response = str(response)
        rcpd = self.cpd(self.response)
        if not isinstance(rcpd, NoisyDeterministicCPD):
            raise CPDError(
                f"response node {response!r} must carry a NoisyDeterministicCPD"
            )
        for node in self.nodes:
            if node == self.response:
                continue
            if not isinstance(self.cpd(node), LinearGaussianCPD):
                raise CPDError(
                    f"non-response node {node!r} must carry a LinearGaussianCPD"
                )
        self._joint = None

    def service_joint(self) -> "tuple[list[str], np.ndarray, np.ndarray]":
        """The service layer's joint Gaussian ``(names, mean, cov)``, built
        once with read-only arrays.  The response is a sink, so the DAG's
        topological order without it is the service subnetwork's: this
        equals ``joint_gaussian(service_subnetwork())``."""
        if self._joint is None:
            services = [
                n for n in self.dag.topological_order() if n != self.response
            ]
            names, mean, cov = joint_gaussian_of([self.cpd(s) for s in services])
            mean.flags.writeable = cov.flags.writeable = False
            self._joint = names, mean, cov
        return self._joint

    def service_subnetwork(self) -> GaussianBayesianNetwork:
        """The Gaussian network over the elapsed-time nodes only."""
        keep = [n for n in self.nodes if n != self.response]
        sub_dag = self.dag.subgraph(keep)
        return GaussianBayesianNetwork(sub_dag, [self.cpd(n) for n in keep])

    def response_distribution(
        self, n_samples: int = 20_000, rng=None, evidence: "Mapping[str, float] | None" = None
    ) -> np.ndarray:
        """Monte-Carlo samples of the response node, optionally given
        evidence on (a subset of) elapsed-time nodes.

        The deterministic ``max`` in ``f`` makes ``D`` non-Gaussian, so the
        posterior is represented by samples; downstream code summarizes
        them (tail probabilities for Eq. 5, histograms for Fig. 7).
        Evidence conditions the cached :meth:`service_joint`; without it
        the services are drawn ancestrally from :meth:`service_subnetwork`.
        """
        rng = ensure_rng(rng)
        if evidence:
            names, mean, cov = condition_gaussian(*self.service_joint(), evidence)
            draws = _sample_mvn(mean, cov, n_samples, rng)
            values = {nm: draws[:, j] for j, nm in enumerate(names)}
            for nm, v in evidence.items():
                values[nm] = np.full(n_samples, float(v))
        else:
            data = self.service_subnetwork().sample(n_samples, rng)
            values = {nm: data[nm] for nm in data.columns}
        rcpd = self.cpd(self.response)
        assert isinstance(rcpd, NoisyDeterministicCPD)
        noise = rng.normal(0.0, rcpd.std, size=n_samples)
        return rcpd.predict(values) + noise


def _sample_mvn(mean: np.ndarray, cov: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from N(mean, cov) robustly (eigenvalue clipping for PSD noise)."""
    if mean.size == 0:
        return np.empty((n, 0))
    # Symmetrize and clip tiny negative eigenvalues from float error.
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    root = vecs * np.sqrt(vals)
    z = rng.standard_normal((n, mean.size))
    return mean + z @ root.T
