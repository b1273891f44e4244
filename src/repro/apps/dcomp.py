"""dComp — compensating for missing performance data (Section 5.1).

Performance data can go missing through lack of instrumentation,
reporting failures, or deliberate overhead reduction.  dComp updates the
stale *prior* knowledge about an unobservable service with the current
measurements of the observable ones: it computes the posterior
``p(Y | O = E(o))`` by standard BN inference, using only the summary of
observation statistics (the mean ``E(o)``) rather than a full EM fill-in
— the paper's point is that the cheap summary suffices.

Figure 6's qualitative claim, asserted by our tests: the posterior
shifts from the prior toward the actual elapsed time and becomes
narrower ("more deterministic and precise").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.bn.network import (
    DiscreteBayesianNetwork,
    GaussianBayesianNetwork,
    HybridResponseNetwork,
)
from repro.bn.inference.gaussian import conditional_of, joint_gaussian
from repro.bn.inference.sampling import likelihood_weighting, weighted_mean
from repro.core.kertbn import KERTBN
from repro.exceptions import InferenceError


@dataclass
class DCompResult:
    """Prior vs posterior of one unobservable service's elapsed time."""

    variable: str
    centers: np.ndarray          # bin centers (discrete) or sample grid
    prior: np.ndarray            # prior pmf over centers
    posterior: np.ndarray        # posterior pmf over centers
    prior_mean: float
    posterior_mean: float
    prior_std: float
    posterior_std: float

    def shift_toward(self, actual: float) -> float:
        """How much closer (in absolute error of the mean) the posterior
        is to the actual elapsed time than the prior was; > 0 = improved."""
        return abs(self.prior_mean - actual) - abs(self.posterior_mean - actual)


def _pmf_stats(pmf: np.ndarray, centers: np.ndarray) -> tuple[float, float]:
    mean = float(np.dot(pmf, centers))
    var = float(np.dot(pmf, (centers - mean) ** 2))
    return mean, float(np.sqrt(max(var, 0.0)))


class DComp:
    """Missing-data compensation on a built KERT-BN."""

    def __init__(self, model: KERTBN):
        self.model = model

    # ------------------------------------------------------------------ #

    def posterior(
        self,
        variable: str,
        observed_means: Mapping[str, float],
        n_samples: int = 40_000,
        rng=None,
    ) -> DCompResult:
        """Posterior of ``variable`` given observable services' (and
        optionally the response's) current measurement means.

        ``observed_means`` maps node name → current mean measurement
        ``E(o)``; ``variable`` must not be among them.
        """
        if variable in observed_means:
            raise InferenceError(f"{variable!r} is listed as observed")
        network = self.model.network
        if isinstance(network, DiscreteBayesianNetwork):
            return self._discrete(variable, observed_means)
        if isinstance(network, HybridResponseNetwork):
            return self._hybrid(variable, observed_means, n_samples, rng)
        if isinstance(network, GaussianBayesianNetwork):
            return _conditioned(joint_gaussian(network), variable, observed_means)
        raise InferenceError(
            f"dComp does not support networks of type {type(network).__name__}"
        )

    # ------------------------------------------------------------------ #

    def _discrete(self, variable: str, observed_means: Mapping[str, float]) -> DCompResult:
        disc = self.model.discretizer
        assert disc is not None
        network = self.model.network
        evidence = {
            name: disc.state_of(name, float(mean))
            for name, mean in observed_means.items()
        }
        # Compile-once engine: factors/plans are shared across calls and
        # the evidence-free prior is cached per variable.
        engine = network.compiled()
        prior = engine.prior(variable).values
        posterior = engine.pmf((variable,), evidence)
        centers = disc.centers(variable)
        pm, ps = _pmf_stats(prior, centers)
        qm, qs = _pmf_stats(posterior, centers)
        return DCompResult(
            variable=variable,
            centers=centers,
            prior=prior,
            posterior=posterior,
            prior_mean=pm,
            posterior_mean=qm,
            prior_std=ps,
            posterior_std=qs,
        )

    def _hybrid(
        self,
        variable: str,
        observed_means: Mapping[str, float],
        n_samples: int,
        rng,
    ) -> DCompResult:
        joint = self.model.assessor.joint
        if self.model.response not in observed_means:
            return _conditioned(joint, variable, observed_means)
        # Response evidence needs the full hybrid net: use LW.
        evidence = {k: float(v) for k, v in observed_means.items()}
        samples, weights = likelihood_weighting(
            self.model.network, evidence, n=n_samples, rng=rng
        )
        values = np.asarray(samples[variable], dtype=float)
        qm = weighted_mean(values, weights)
        qv = weighted_mean((values - qm) ** 2, weights)
        # Prior marginal from the service-layer joint.
        names, mean, cov = joint
        j = names.index(variable)
        return _normal_result(variable, mean[j], cov[j, j], qm, qv)


def _conditioned(
    joint: "tuple[list[str], np.ndarray, np.ndarray]",
    variable: str,
    observed_means: Mapping[str, float],
) -> DCompResult:
    """Exact prior and posterior of ``variable`` in a joint Gaussian
    ``(names, mean, cov)``: a pure NRT-BN's, or a hybrid model's service
    layer."""
    names, mean, cov = joint
    qm, qv = conditional_of(
        names, mean, cov, variable,
        {k: float(v) for k, v in observed_means.items()},
    )
    j = names.index(variable)
    return _normal_result(variable, mean[j], cov[j, j], qm, qv)


def _normal_result(
    variable: str, pm: float, pv: float, qm: float, qv: float
) -> DCompResult:
    """Prior ``N(pm, pv)`` and posterior ``N(qm, qv)`` as pmfs on one
    shared grid (for plotting), with their moments."""
    pm, qm = float(pm), float(qm)
    ps = float(np.sqrt(max(pv, 0.0)))
    qs = float(np.sqrt(max(qv, 0.0)))
    lo = min(pm - 4 * ps, qm - 4 * max(qs, 1e-9))
    hi = max(pm + 4 * ps, qm + 4 * max(qs, 1e-9))
    centers = np.linspace(lo, hi, 101)
    return DCompResult(
        variable=variable,
        centers=centers,
        prior=_gaussian_pmf(centers, pm, ps),
        posterior=_gaussian_pmf(centers, qm, qs),
        prior_mean=pm,
        posterior_mean=qm,
        prior_std=ps,
        posterior_std=qs,
    )


def _gaussian_pmf(centers: np.ndarray, mean: float, std: float) -> np.ndarray:
    if std <= 0:
        pmf = np.zeros_like(centers)
        pmf[int(np.argmin(np.abs(centers - mean)))] = 1.0
        return pmf
    dens = np.exp(-0.5 * ((centers - mean) / std) ** 2)
    return dens / dens.sum()
