"""pAccel — projecting the end-to-end impact of local acceleration
(Section 5.2).

Speeding up a service invoked in parallel with a slower sibling buys
nothing end-to-end; pAccel quantifies this *before* resources are spent:
it computes the posterior response-time distribution ``p(D | Z = E(z))``
given a *predicted* mean elapsed time for the service under
consideration (e.g. 90 % of its current mean after a resource action).
The difference between projected and current response-time distributions
gauges the action's benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.apps.violation import tail_probability_from_pmf
from repro.bn.network import (
    DiscreteBayesianNetwork,
    GaussianBayesianNetwork,
    HybridResponseNetwork,
)
from repro.core.kertbn import KERTBN
from repro.exceptions import InferenceError
from repro.utils.rng import ensure_rng


@dataclass
class PAccelResult:
    """Projected response-time distribution under a hypothetical change."""

    evidence: dict
    # Discrete representation (always filled; hybrid models histogram
    # their Monte-Carlo samples onto `edges`).
    edges: np.ndarray
    pmf: np.ndarray
    mean: float
    std: float
    samples: "np.ndarray | None" = None

    def violation_probability(self, threshold: float) -> float:
        """``P_bn(D > h)`` under the projection — Eq. 5's model term."""
        if self.samples is not None:
            return float(np.mean(self.samples > threshold))
        return tail_probability_from_pmf(self.pmf, self.edges, threshold)

    @classmethod
    def from_pmf(
        cls, evidence: Mapping, pmf: np.ndarray, discretizer, response: str
    ) -> "PAccelResult":
        """The result for a discrete response pmf on ``discretizer``'s
        bins, its moments taken at the bin centers."""
        centers = discretizer.centers(response)
        mean = float(np.dot(pmf, centers))
        std = float(np.sqrt(max(np.dot(pmf, (centers - mean) ** 2), 0.0)))
        return cls(
            evidence=dict(evidence),
            edges=discretizer.edges(response),
            pmf=pmf,
            mean=mean,
            std=std,
        )


class PAccel:
    """Acceleration-impact projection on a built KERT-BN."""

    def __init__(self, model: KERTBN):
        self.model = model

    def project(
        self,
        predicted_means: Mapping[str, float],
        n_samples: int = 40_000,
        rng=None,
    ) -> PAccelResult:
        """Posterior response-time distribution given predicted service
        means (``{service: E(z)}``)."""
        if not predicted_means:
            raise InferenceError("need at least one predicted service mean")
        response = self.model.response
        if response in predicted_means:
            raise InferenceError("cannot condition on the response itself")
        network = self.model.network
        if isinstance(network, HybridResponseNetwork):
            return self._hybrid(predicted_means, n_samples, rng)
        if isinstance(network, GaussianBayesianNetwork):
            return self._gaussian(predicted_means)
        if isinstance(network, DiscreteBayesianNetwork):
            return self._discrete(predicted_means)
        raise InferenceError(
            f"pAccel does not support networks of type {type(network).__name__}"
        )

    def _gaussian(self, predicted_means: Mapping[str, float]) -> PAccelResult:
        """Projection on a pure linear-Gaussian (NRT-BN) network."""
        network = self.model.network
        assert isinstance(network, GaussianBayesianNetwork)
        response = self.model.response
        from repro.bn.inference.gaussian import conditional_of, joint_gaussian

        names, mean, cov = joint_gaussian(network)
        m, v = conditional_of(names, mean, cov, response,
                              {k: float(x) for k, x in predicted_means.items()})
        return _from_normal(dict(predicted_means), m, float(np.sqrt(max(v, 1e-18))))

    def baseline(self, n_samples: int = 40_000, rng=None) -> PAccelResult:
        """The current (no-action) response-time distribution, for
        benefit = projected − baseline comparisons."""
        network = self.model.network
        response = self.model.response
        if isinstance(network, DiscreteBayesianNetwork):
            assert self.model.discretizer is not None
            pmf = network.compiled().prior(response).values
            return PAccelResult.from_pmf({}, pmf, self.model.discretizer, response)
        if isinstance(network, GaussianBayesianNetwork):
            from repro.bn.inference.gaussian import joint_gaussian, marginal_gaussian

            names, mean, cov = joint_gaussian(network)
            _, m, v = marginal_gaussian(names, mean, cov, [response])
            return _from_normal({}, float(m[0]), float(np.sqrt(max(v[0, 0], 1e-18))))
        return self._hybrid({}, n_samples, rng)

    # ------------------------------------------------------------------ #

    def _discrete(self, predicted_means: Mapping[str, float]) -> PAccelResult:
        disc = self.model.discretizer
        assert disc is not None
        network = self.model.network
        response = self.model.response
        evidence = {
            name: disc.state_of(name, float(mean))
            for name, mean in predicted_means.items()
        }
        # Compiled engine: repeated what-if projections share one plan.
        pmf = network.compiled().pmf((response,), evidence)
        return PAccelResult.from_pmf(predicted_means, pmf, disc, response)

    def _hybrid(
        self, predicted_means: Mapping[str, float], n_samples: int, rng
    ) -> PAccelResult:
        network = self.model.network
        assert isinstance(network, HybridResponseNetwork)
        rng = ensure_rng(rng)
        evidence = {k: float(v) for k, v in predicted_means.items()}
        samples = network.response_distribution(
            n_samples=n_samples, rng=rng, evidence=evidence
        )
        return _from_samples(dict(predicted_means), samples)


def _from_normal(evidence: dict, mean: float, std: float) -> PAccelResult:
    """A normal response on 80 bins spanning ``mean ± 5 std``."""
    edges = np.linspace(mean - 5 * std, mean + 5 * std, 81)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = np.exp(-0.5 * ((centers - mean) / std) ** 2)
    return PAccelResult(
        evidence=evidence, edges=edges, pmf=dens / dens.sum(), mean=mean, std=std
    )


def _from_samples(evidence: dict, samples: np.ndarray) -> PAccelResult:
    lo, hi = float(samples.min()), float(samples.max())
    span = max(hi - lo, 1e-9)
    edges = np.linspace(lo - 0.01 * span, hi + 0.01 * span, 41)
    counts, _ = np.histogram(samples, bins=edges)
    pmf = counts / counts.sum()
    return PAccelResult(
        evidence=evidence,
        edges=edges,
        pmf=pmf,
        mean=float(samples.mean()),
        std=float(samples.std()),
        samples=samples,
    )
