"""Statistical helpers shared by the apps and benchmarks.

These back the paper's evaluation quantities: empirical tail
probabilities and relative errors for the threshold-violation study
(Eq. 5).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require


def empirical_tail_probability(samples: np.ndarray, threshold: float) -> float:
    """Return ``P(X > threshold)`` estimated from samples.

    This is the ``P_real(D > h)`` term of the paper's Eq. 5.
    """
    samples = np.asarray(samples, dtype=float)
    require(samples.size > 0, "need at least one sample")
    return float(np.mean(samples > threshold))


def relative_error(estimate: float, truth: float) -> float:
    """``|estimate - truth| / truth`` — the paper's Eq. 5 shape.

    ``truth == 0`` returns ``inf`` when the estimate is nonzero and ``0.0``
    when both vanish, mirroring the natural limit.
    """
    if truth == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(estimate - truth) / abs(truth)

