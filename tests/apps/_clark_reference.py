"""Scalar reference for Clark moment propagation (test-only oracle).

A plain-Python, one-state-at-a-time propagation of Gaussian moments
through a workflow expression: ``Sum`` as an exact linear map and
``Max`` as Clark's (1961) pairwise approximation, with
``scipy.stats.norm`` for Φ/φ.  It shares no code with
:mod:`repro.apps.assessment`; the differential tests compare the
compiled NumPy plan against it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from repro.exceptions import InferenceError
from repro.workflow.expressions import Max, Sum, Var


class MomentState:
    """Mean vector + covariance over base variables *and* derived terms."""

    def __init__(self, names, mean, cov):
        self.index = {n: i for i, n in enumerate(names)}
        self.mean = [float(m) for m in mean]
        k = len(names)
        self.cov = [[float(cov[i][j]) for j in range(k)] for i in range(k)]

    def add(self, key, mean, cov_with, var):
        idx = len(self.mean)
        self.index[key] = idx
        self.mean.append(mean)
        for row, c in zip(self.cov, cov_with):
            row.append(c)
        self.cov.append(cov_with + [var])
        return idx

    def get(self, idx):
        return self.mean[idx], self.cov[idx][idx]


def clark_max(state, i, j):
    """Clark's ``(mean, covariances with existing entries, variance)``."""
    m1, v1 = state.get(i)
    m2, v2 = state.get(j)
    c12 = state.cov[i][j]
    a = math.sqrt(max(v1 + v2 - 2 * c12, 0.0))
    if a < 1e-12:
        take = i if m1 >= m2 else j
        return max(m1, m2), list(state.cov[take]), state.cov[take][take]
    alpha = (m1 - m2) / a
    phi = norm.pdf(alpha)
    big_phi = norm.cdf(alpha)
    q = 1.0 - big_phi
    mean = m1 * big_phi + m2 * q + a * phi
    second = (v1 + m1 * m1) * big_phi + (v2 + m2 * m2) * q + (m1 + m2) * a * phi
    covs = [
        state.cov[i][k] * big_phi + state.cov[j][k] * q
        for k in range(len(state.mean))
    ]
    return mean, covs, max(second - mean * mean, 0.0)


def propagate(expr, state):
    """Return the state index holding ``expr``'s moments."""
    if isinstance(expr, Var):
        if expr.name not in state.index:
            raise InferenceError(f"no moments for variable {expr.name!r}")
        return state.index[expr.name]
    if isinstance(expr, Sum):
        idxs = [propagate(t, state) for t in expr.terms]
        mean = sum(state.mean[i] for i in idxs)
        covs = [sum(state.cov[i][k] for i in idxs) for k in range(len(state.mean))]
        var = sum(state.cov[i][j] for i in idxs for j in idxs)
        return state.add(("sum", id(expr)), mean, covs, max(var, 0.0))
    if isinstance(expr, Max):
        idxs = [propagate(t, state) for t in expr.terms]
        current = idxs[0]
        for nxt in idxs[1:]:
            mean, covs, var = clark_max(state, current, nxt)
            current = state.add(("max", id(expr), nxt), mean, covs, var)
        return current
    raise InferenceError(f"cannot propagate through {type(expr)!r}")


def reference_state(expr, names, mean, cov, evidence=None):
    """Propagate ``expr`` over ``N(mean, cov)`` given optional evidence.

    Returns ``(state, idx)``: the grown state and the index of ``expr``.
    Evidence is applied by an explicit Schur complement (1e-12 ridge);
    the clamped variables re-enter as zero-variance entries.
    """
    names = list(names)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if evidence:
        b = [names.index(v) for v in evidence]
        a = [i for i in range(len(names)) if i not in b]
        e = np.array([float(evidence[names[i]]) for i in b])
        s_bb = cov[np.ix_(b, b)] + 1e-12 * np.eye(len(b))
        s_ab = cov[np.ix_(a, b)]
        gain = np.linalg.solve(s_bb, s_ab.T).T
        post_mean = mean[a] + gain @ (e - mean[b])
        post_cov = cov[np.ix_(a, a)] - gain @ s_ab.T
        k = len(names)
        names = [names[i] for i in a] + [names[i] for i in b]
        mean = np.concatenate([post_mean, e])
        grown = np.zeros((k, k))
        grown[: len(a), : len(a)] = 0.5 * (post_cov + post_cov.T)
        cov = grown
    state = MomentState(names, mean, cov)
    idx = propagate(expr, state)
    return state, idx
