"""Threshold-violation probabilities and the Eq.-5 error.

"What is the probability that response time will exceed the
threshold(s)?" — the assessment both human operators and autonomic
software care about.  Model quality is judged by the *Relative Threshold
Violation Probability Error*

    ε = |P_bn(D > h) − P_real(D > h)| / P_real(D > h)        (Eq. 5)

computed here for a sweep of thresholds (Fig. 8 uses six).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import InferenceError
from repro.utils.stats import empirical_tail_probability, relative_error


def tail_probability_from_pmf(
    pmf: np.ndarray, edges: np.ndarray, threshold: float
) -> float:
    """``P(D > h)`` from a binned pmf, linearly interpolating inside the
    bin containing ``h`` (mass is treated as uniform within a bin)."""
    pmf = np.asarray(pmf, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if pmf.size != edges.size - 1:
        raise InferenceError(
            f"pmf has {pmf.size} bins but edges define {edges.size - 1}"
        )
    if threshold >= edges[-1]:
        return 0.0
    if threshold <= edges[0]:
        tail = pmf.sum()
    else:
        b = int(np.searchsorted(edges, threshold, side="right") - 1)
        b = min(max(b, 0), pmf.size - 1)
        within = (edges[b + 1] - threshold) / (edges[b + 1] - edges[b])
        tail = pmf[b + 1:].sum() + pmf[b] * within
    # A normalized pmf can sum to 1 + 1 ulp.
    return min(float(tail), 1.0)


def relative_violation_error(p_model: float, p_real: float) -> float:
    """Eq. 5: ``|P_bn − P_real| / P_real``."""
    if p_real < 0 or p_model < 0:
        raise InferenceError("probabilities must be nonnegative")
    return relative_error(p_model, p_real)


def violation_curve(
    model_prob,  # Callable[[float], float] — e.g. PAccelResult.violation_probability
    real_samples: np.ndarray,
    thresholds: Sequence[float],
) -> list[dict]:
    """ε across thresholds — one row per Fig.-8 bar.

    ``model_prob`` is any callable giving ``P_bn(D > h)``; ``real_samples``
    are the measured response times defining ``P_real``.
    """
    real_samples = np.asarray(real_samples, dtype=float)
    rows = []
    for h in thresholds:
        p_real = empirical_tail_probability(real_samples, h)
        p_model = float(model_prob(h))
        rows.append(
            {
                "threshold": float(h),
                "p_real": p_real,
                "p_model": p_model,
                "epsilon": relative_violation_error(p_model, p_real),
            }
        )
    return rows


def default_thresholds(samples: np.ndarray, n: int = 6) -> list[float]:
    """Six evenly spread quantile thresholds over the observed response
    range (the paper does not list its values; quantiles keep every
    ``P_real`` away from 0 so ε stays defined)."""
    samples = np.asarray(samples, dtype=float)
    qs = np.linspace(0.30, 0.90, n)
    return [float(np.quantile(samples, q)) for q in qs]
