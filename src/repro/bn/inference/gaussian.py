"""Exact inference for linear-Gaussian Bayesian networks.

A linear-Gaussian network is equivalent to one joint multivariate normal;
:func:`joint_gaussian` builds it by the standard topological recursion and
:func:`condition_gaussian` applies Gaussian conditioning, giving the exact
posteriors that dComp (posterior of an unobservable service's elapsed
time) and pAccel (posterior response time under a hypothetical
acceleration) need in the continuous setting.

References: Shachter & Kenley (1989); Koller & Friedman §7.2.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.bn.cpd.linear_gaussian import LinearGaussianCPD
from repro.exceptions import InferenceError


def joint_gaussian(network) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Convert a linear-Gaussian network to ``(names, mean, cov)``.

    Processing nodes in topological order, with ``w`` the coefficient
    vector of node *i* over its parents ``pa``:

    - ``mean[i] = b0 + w · mean[pa]``
    - ``cov[i, j] = w · cov[pa, j]`` for previously processed ``j``
    - ``cov[i, i] = σ²_i + w · cov[pa, pa] · w``
    """
    order = [str(n) for n in network.dag.topological_order()]
    index = {n: i for i, n in enumerate(order)}
    k = len(order)
    mean = np.zeros(k)
    cov = np.zeros((k, k))
    for i, n in enumerate(order):
        cpd = network.cpd(n)
        if not isinstance(cpd, LinearGaussianCPD):
            raise InferenceError(
                f"joint_gaussian requires linear-Gaussian CPDs; "
                f"{n!r} has {type(cpd).__name__}"
            )
        pa = [index[p] for p in cpd.parents]
        w = cpd.coefficients
        mean[i] = cpd.intercept + (w @ mean[pa] if pa else 0.0)
        if pa:
            # Node i's topological position is i, so the already-processed
            # nodes (parents included) are exactly the slice ``:i``.
            cov[i, :i] = w @ cov[pa, :i]
            cov[:i, i] = cov[i, :i]
            cov[i, i] = cpd.variance + w @ cov[np.ix_(pa, pa)] @ w
        else:
            cov[i, i] = cpd.variance
    return order, mean, cov


def marginal_gaussian(
    names: list[str],
    mean: np.ndarray,
    cov: np.ndarray,
    variables: Iterable[str],
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Marginalize a joint MVN onto ``variables`` (order preserved)."""
    variables = [str(v) for v in variables]
    missing = [v for v in variables if v not in names]
    if missing:
        raise InferenceError(f"unknown variables {missing}")
    idx = [names.index(v) for v in variables]
    return variables, mean[idx].copy(), cov[np.ix_(idx, idx)].copy()


def condition_gaussian(
    names: list[str],
    mean: np.ndarray,
    cov: np.ndarray,
    evidence: Mapping[str, float],
    jitter: float = 1e-12,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Condition ``N(mean, cov)`` on ``evidence`` (exact Schur complement).

    Returns the posterior ``(names, mean, cov)`` over the remaining
    variables:

    - ``μ' = μ_a + Σ_ab Σ_bb⁻¹ (e - μ_b)``
    - ``Σ' = Σ_aa - Σ_ab Σ_bb⁻¹ Σ_ba``

    A tiny ``jitter`` ridge keeps the solve stable when evidence variables
    are nearly deterministic (e.g. near-zero-variance monitoring noise).
    """
    evidence = {str(k): float(v) for k, v in evidence.items()}
    unknown = [v for v in evidence if v not in names]
    if unknown:
        raise InferenceError(f"evidence on unknown variables {unknown}")
    if not evidence:
        return list(names), mean.copy(), cov.copy()
    b = [names.index(v) for v in evidence]
    a = [i for i in range(len(names)) if i not in set(b)]
    if not a:
        raise InferenceError("evidence covers every variable; nothing to infer")
    e = np.array([evidence[names[i]] for i in b], dtype=float)
    s_bb = cov[np.ix_(b, b)] + jitter * np.eye(len(b))
    s_ab = cov[np.ix_(a, b)]
    solve = np.linalg.solve(s_bb, np.column_stack([e - mean[b]]))
    post_mean = mean[a] + (s_ab @ solve).ravel()
    gain = np.linalg.solve(s_bb, s_ab.T)
    post_cov = cov[np.ix_(a, a)] - s_ab @ gain
    # Symmetrize to wash out float asymmetry before downstream eigendecomp.
    post_cov = 0.5 * (post_cov + post_cov.T)
    return [names[i] for i in a], post_mean, post_cov


def conditional_of(
    names: list[str],
    mean: np.ndarray,
    cov: np.ndarray,
    variable: str,
    evidence: Mapping[str, float],
) -> tuple[float, float]:
    """Posterior ``(mean, variance)`` of one variable given evidence."""
    post_names, post_mean, post_cov = condition_gaussian(names, mean, cov, evidence)
    if variable not in post_names:
        raise InferenceError(f"{variable!r} is part of the evidence or unknown")
    i = post_names.index(variable)
    return float(post_mean[i]), float(max(post_cov[i, i], 0.0))
