"""Exact inference for linear-Gaussian Bayesian networks.

A linear-Gaussian network is equivalent to one joint multivariate normal;
:func:`joint_gaussian` builds it with one triangular solve and
:func:`condition_gaussian` applies Gaussian conditioning, giving the exact
posteriors that dComp (posterior of an unobservable service's elapsed
time) and pAccel (posterior response time under a hypothetical
acceleration) need in the continuous setting.

References: Shachter & Kenley (1989); Koller & Friedman §7.2.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np
from scipy.linalg import solve_triangular

from repro.bn.cpd.linear_gaussian import LinearGaussianCPD
from repro.exceptions import InferenceError


def joint_gaussian(network) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Convert a linear-Gaussian network to ``(names, mean, cov)``.

    Names come in the DAG's topological order; see
    :func:`joint_gaussian_of` for the computation.
    """
    order = [str(n) for n in network.dag.topological_order()]
    return joint_gaussian_of([network.cpd(n) for n in order])


def joint_gaussian_of(cpds) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The joint MVN of linear-Gaussian CPDs given in topological order.

    Stacking the nodes as ``X = b₀ + B X + ε`` with ``B`` strictly lower
    triangular (``B[i, pa] = w_i``) and ``ε ~ N(0, diag(σ²))`` gives
    ``X = L (b₀ + ε)`` with ``L = (I − B)⁻¹``, so

    - ``mean = L b₀``
    - ``cov = L diag(σ²) Lᵀ``

    one unit-lower-triangular solve and one product.
    """
    names = [cpd.variable for cpd in cpds]
    for cpd in cpds:
        if not isinstance(cpd, LinearGaussianCPD):
            raise InferenceError(
                f"joint_gaussian requires linear-Gaussian CPDs; "
                f"{cpd.variable!r} has {type(cpd).__name__}"
            )
    index = {n: i for i, n in enumerate(names)}
    k = len(names)
    rows = [i for i, cpd in enumerate(cpds) for _ in cpd.parents]
    cols = [index[p] for cpd in cpds for p in cpd.parents]
    if any(c >= r for r, c in zip(rows, cols)):
        raise InferenceError("CPDs must be given in topological order")
    a = np.eye(k)
    if rows:
        a[rows, cols] = -np.concatenate([cpd.coefficients for cpd in cpds])
    lower = solve_triangular(a, np.eye(k), lower=True, unit_diagonal=True)
    mean = lower @ np.array([cpd.intercept for cpd in cpds])
    scaled = lower * np.sqrt([cpd.variance for cpd in cpds])
    # ``M @ M.T`` comes out exactly symmetric, like the recursion it replaces.
    return names, mean, scaled @ scaled.T


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
