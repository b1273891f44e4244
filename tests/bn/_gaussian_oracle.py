"""Per-node recursion oracle for the joint Gaussian of a linear-Gaussian BN.

This is the textbook topological recursion (Shachter & Kenley 1989) that
:func:`repro.bn.inference.gaussian.joint_gaussian` replaced with one
triangular solve.  It imports nothing from ``repro.bn.inference``, so the
two share no arithmetic.  Processing nodes in topological order, with
``w`` the coefficient vector of node *i* over its parents ``pa``:

- ``mean[i] = b0 + w · mean[pa]``
- ``cov[i, j] = w · cov[pa, j]`` for previously processed ``j``
- ``cov[i, i] = σ²_i + w · cov[pa, pa] · w``
"""

from __future__ import annotations

import numpy as np


def joint_gaussian_recursion(network) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(names, mean, cov)`` in the DAG's topological order."""
    order = [str(n) for n in network.dag.topological_order()]
    index = {n: i for i, n in enumerate(order)}
    k = len(order)
    mean = np.zeros(k)
    cov = np.zeros((k, k))
    for i, n in enumerate(order):
        cpd = network.cpd(n)
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
