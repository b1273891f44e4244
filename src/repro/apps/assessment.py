"""Rapid response-time assessment — the paper's Section-7 future work.

"Another important extension of our work is employing domain knowledge
and decentralization techniques to reduce the cost of probability
assessment *after* the model is constructed.  Crucial autonomic routines
such as resource provisioning and problem localization will profit
greatly on rapid response time assessment."

This module implements that extension for the continuous KERT-BN:
instead of Monte-Carlo sampling the hybrid network (tens of thousands of
draws per query), the workflow expression is evaluated *analytically*
over Gaussian moments —

- ``Sum``  → exact mean/variance/covariance propagation;
- ``Max``  → Clark's (1961) second-order approximation for the maximum
  of correlated Gaussians, applied pairwise down the operand list;
- ``Scale`` / ``WeightedSum`` → linear maps.

The result is an estimate of ``E[D]``, ``Var[D]`` and ``P(D > h)``,
available on any node that holds the (tiny) joint-Gaussian summary of
the service layer — cheap enough to run inside an autonomic control
loop, and decentralizable since the summary is a few floats.

Cost.  The expression is compiled once per ``f`` object into a flat
plan of steps with fixed slot indices (:class:`_MomentPlan`), so every
model refitted from one :class:`~repro.core.kertbn.WorkflowKnowledge`
shares one plan; a loaded model, whose ``f`` is rebuilt, compiles its
own.  The plan
runs over ``(B, K)`` mean and ``(B, K, K)`` covariance arrays, K =
services + inner nodes and B a batch of service-layer states; each step
writes one covariance row as a vectorized combination of earlier rows,
so a sweep is O(K²) array work per batch row, in one short run of NumPy
calls per inner node.  A plain assessment is a sweep with B = 1, about
1 ms at 80 services on a 2-core x86 host.  Each model caches one
assessor (:attr:`KERTBN.assessor <repro.core.kertbn.KERTBN.assessor>`),
which runs the evidence-free sweep at most once, however many of
:meth:`~RapidAssessor.assess`, :meth:`~RapidAssessor.violation_probability`,
:meth:`~RapidAssessor.response_moments` and :meth:`~RapidAssessor.blame`
read it.  ``assess_each`` conditions on
each service separately by rank-1 Schur updates and sweeps all of them
at once; that is what problem localization runs, about 7 ms for all 80
services.

Accuracy: exact for pure-sequence workflows; for parallel joins the
Clark approximation is typically within a few percent of Monte Carlo
(asserted by the tests), degrading gracefully when branch distributions
overlap heavily.
"""

from __future__ import annotations

import math
import weakref
from typing import Mapping

import numpy as np
from scipy.special import ndtr

from repro.bn.inference.gaussian import condition_gaussian
from repro.core.kertbn import KERTBN
from repro.exceptions import InferenceError
from repro.workflow.expressions import (
    Const,
    Expression,
    Max,
    Scale,
    Sum,
    Var,
    WeightedSum,
)


_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Float budget of one batched sweep's ``(B, K, K)`` covariance (32 MB):
#: :meth:`RapidAssessor.assess_each` splits larger batches into chunks.
_SWEEP_FLOATS = 2**22


class _MomentPlan:
    """The workflow expression compiled to a flat list of moment steps.

    Slots ``0..n-1`` hold the services (in ``names`` order); every inner
    node of the expression gets the next slot, in post-order, so a step
    only reads slots below its own.  ``Sum``, ``Scale`` and
    ``WeightedSum`` compile to one linear step ``(slots, weights)``;
    ``Const`` to a zero-variance slot; an n-ary ``Max`` to a chain of
    pairwise Clark steps.  ``Var`` creates no step, it names a slot.
    """

    def __init__(self, expr: Expression, names: "list[str]"):
        self.names = tuple(names)
        self.n = len(names)
        self.steps: list[tuple] = []
        self.root = self._compile(expr, {name: i for i, name in enumerate(names)})
        self.size = self.n + len(self.steps)

    def _emit(self, step: tuple) -> int:
        self.steps.append(step)
        return self.n + len(self.steps) - 1

    def _compile(self, expr: Expression, index: "dict[str, int]") -> int:
        if isinstance(expr, Var):
            if expr.name not in index:
                raise InferenceError(f"no moments for variable {expr.name!r}")
            return index[expr.name]
        if isinstance(expr, Const):
            return self._emit(("const", expr.value))
        if isinstance(expr, (Sum, Scale, WeightedSum)):
            if isinstance(expr, Sum):
                pairs = [(1.0, t) for t in expr.terms]
            elif isinstance(expr, Scale):
                pairs = [(expr.factor, expr.term)]
            else:
                pairs = list(expr.weighted_terms)
            slots = [self._compile(t, index) for _, t in pairs]
            weights = np.array([w for w, _ in pairs])
            return self._emit(("lin", np.array(slots), weights))
        if isinstance(expr, Max):
            slots = [self._compile(t, index) for t in expr.terms]
            current = slots[0]
            for nxt in slots[1:]:
                current = self._emit(("max", current, nxt))
            return current
        raise InferenceError(f"cannot propagate through {type(expr)!r}")

    def run(
        self, mean: np.ndarray, cov: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Propagate a batch of service-layer Gaussians through the plan.

        ``mean`` is ``(B, n)`` and ``cov`` ``(B, n, n)``; returns the
        ``(B, K)`` means and ``(B, K, K)`` covariances over every slot.
        """
        b, n, size = mean.shape[0], self.n, self.size
        means = np.zeros((b, size))
        covs = np.zeros((b, size, size))
        means[:, :n] = mean
        covs[:, :n, :n] = cov
        for k, step in enumerate(self.steps, start=n):
            kind = step[0]
            if kind == "const":
                means[:, k] = step[1]
                continue
            if kind == "lin":
                _, slots, w = step
                row = w @ covs[:, slots, :k]
                means[:, k] = means[:, slots] @ w
                var = np.maximum(row[:, slots] @ w, 0.0)
            else:
                _, i, j = step
                m1, m2 = means[:, i], means[:, j]
                v1, v2 = covs[:, i, i], covs[:, j, j]
                a = np.sqrt(np.maximum(v1 + v2 - 2.0 * covs[:, i, j], 0.0))
                # Clark (1961).  Rows with a < 1e-12 hold (almost) the same
                # variable twice: the max is whichever has the larger mean.
                degenerate = a < 1e-12
                first = m1 >= m2
                alpha = (m1 - m2) / np.where(degenerate, 1.0, a)
                phi = np.exp(-(alpha**2) / 2.0) / _SQRT_2PI
                big_phi = np.where(degenerate, first, ndtr(alpha))
                q = 1.0 - big_phi
                mean_k = m1 * big_phi + m2 * q + a * phi
                second = (
                    (v1 + m1 * m1) * big_phi
                    + (v2 + m2 * m2) * q
                    + (m1 + m2) * a * phi
                )
                var = np.where(
                    degenerate,
                    np.where(first, v1, v2),
                    np.maximum(second - mean_k * mean_k, 0.0),
                )
                means[:, k] = np.where(degenerate, np.maximum(m1, m2), mean_k)
                row = (
                    covs[:, i, :k] * big_phi[:, None]
                    + covs[:, j, :k] * q[:, None]
                )
            covs[:, k, :k] = row
            covs[:, :k, k] = row
            covs[:, k, k] = var
        return means, covs


#: The compiled plan of each live ``f`` object (see the module docstring).
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _plan_for(f, names: "list[str]") -> _MomentPlan:
    """The moment plan of ``f`` over service slots ``names``, compiled once."""
    plan = _PLANS.get(f)
    if plan is None or plan.names != tuple(names):
        plan = _PLANS[f] = _MomentPlan(f.expression, names)
    return plan


class RapidAssessor:
    """Analytic (sampling-free) response-time assessment on a KERT-BN.

    One per model, built on first use by :attr:`KERTBN.assessor
    <repro.core.kertbn.KERTBN.assessor>`: it holds the network's cached
    service-layer joint Gaussian and the :class:`_MomentPlan` compiled
    for the model's ``f``.  The evidence-free sweep runs once, on first
    use; each :meth:`assess` call with evidence costs a Gaussian
    conditioning plus one run of the plan; :meth:`assess_each` runs it
    once for a whole batch of single-service clamps.
    """

    def __init__(self, model: KERTBN):
        from repro.bn.network import HybridResponseNetwork

        network = model.network
        if not isinstance(network, HybridResponseNetwork):
            raise InferenceError(
                "RapidAssessor needs the continuous (hybrid) KERT-BN"
            )
        self._names, self._mean, self._cov = network.service_joint()
        self._index = {name: i for i, name in enumerate(self._names)}
        self._response_var = network.cpd(model.response).variance
        self._plan = _plan_for(model.f, self._names)
        self._prior: "tuple[np.ndarray, np.ndarray] | None" = None

    def _prior_sweep(self) -> "tuple[np.ndarray, np.ndarray]":
        """The evidence-free sweep over every slot, run once per assessor."""
        if self._prior is None:
            self._prior = self._plan.run(self._mean[None], self._cov[None])
        return self._prior

    @property
    def joint(self) -> "tuple[list[str], np.ndarray, np.ndarray]":
        """The service-layer joint Gaussian ``(names, mean, cov)``, with
        read-only arrays: the network's cached
        :meth:`~repro.bn.network.HybridResponseNetwork.service_joint`."""
        return self._names, self._mean, self._cov

    def _response(
        self, mean: np.ndarray, cov: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(E[D], Var[D])`` per batch row of service-layer Gaussians."""
        means, covs = self._plan.run(mean, cov)
        r = self._plan.root
        return means[:, r], covs[:, r, r] + self._response_var

    def assess(
        self, evidence: "Mapping[str, float] | None" = None
    ) -> tuple[float, float]:
        """Return ``(E[D], Var[D])`` given optional service evidence."""
        if not evidence:
            means, covs = self._prior_sweep()
            r = self._plan.root
            return float(means[0, r]), float(covs[0, r, r] + self._response_var)
        rest, post_mean, post_cov = condition_gaussian(
            self._names, self._mean, self._cov, evidence
        )
        # Evidence variables keep their slots as zero-variance entries.
        keep = [self._index[name] for name in rest]
        mean = np.zeros(len(self._names))
        cov = np.zeros_like(self._cov)
        mean[keep] = post_mean
        cov[np.ix_(keep, keep)] = post_cov
        for name, value in evidence.items():
            mean[self._index[str(name)]] = float(value)
        m, v = self._response(mean[None], cov[None])
        return float(m[0]), float(v[0])

    def assess_each(
        self, values: Mapping[str, float]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(E[D], Var[D])`` with each service in ``values`` clamped alone.

        Row ``r`` equals ``assess({s_r: x_r})`` for the ``r``-th item of
        ``values``.  Conditioning on one variable is a rank-1 Schur
        update, ``μ + Σ[:,i](x−μ_i)/Σ_ii`` and ``Σ − Σ[:,i]Σ[i,:]/Σ_ii``
        (with the same 1e-12 ridge on ``Σ_ii`` as
        :func:`~repro.bn.inference.gaussian.condition_gaussian`), so every
        conditioned state is built at once and the plan runs one sweep
        (or one per chunk of rows, past :data:`_SWEEP_FLOATS`).
        """
        unknown = [s for s in values if s not in self._index]
        if unknown:
            raise InferenceError(f"evidence on unknown variables {unknown}")
        idx = np.array([self._index[s] for s in values], dtype=int)
        x = np.array([float(v) for v in values.values()])
        chunk = max(1, _SWEEP_FLOATS // self._plan.size**2)
        parts = [
            self._response(*self._clamped(idx[s : s + chunk], x[s : s + chunk]))
            for s in range(0, idx.size, chunk)
        ]
        means, variances = zip(*parts)
        return np.concatenate(means), np.concatenate(variances)

    def _clamped(
        self, idx: np.ndarray, x: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Row ``r``: the joint conditioned on service ``idx[r] = x[r]``."""
        rows = np.arange(idx.size)
        col = self._cov[:, idx].T  # (B, n): Σ[:, i_r] per row
        s_ii = self._cov[idx, idx] + 1e-12
        mean = self._mean[None, :] + col * ((x - self._mean[idx]) / s_ii)[:, None]
        # u uᵀ with u = Σ[:,i]/√Σ_ii is exactly symmetric, unlike c (c/s)ᵀ.
        u = col / np.sqrt(s_ii)[:, None]
        cov = self._cov[None, :, :] - u[:, :, None] * u[:, None, :]
        mean[rows, idx] = x
        cov[rows, idx, :] = 0.0
        cov[rows, :, idx] = 0.0
        return mean, cov

    def violation_probability(
        self, threshold: float, evidence: "Mapping[str, float] | None" = None
    ) -> float:
        """Analytic ``P(D > h)`` under a Gaussian summary of ``D``."""
        m, v = self.assess(evidence)
        std = math.sqrt(max(v, 1e-18))
        return float(ndtr(-(threshold - m) / std))

    def response_moments(
        self,
    ) -> tuple[float, float, dict[str, tuple[float, float, float]]]:
        """Joint second-order summary of the services *and* ``D``.

        Returns ``(E[D], Var[D], per_service)`` where ``per_service``
        maps each service to ``(mean, var, cov(X_i, D))`` — the Clark
        propagation tracks covariances of every intermediate term with
        the base variables, so the service/response covariances come for
        free from the evidence-free sweep :meth:`assess` reads.  Var[D] includes
        the response node's own noise (which is independent of the
        services, so the covariances are unaffected).
        """
        means, covs = self._prior_sweep()
        mean, cov, r = means[0], covs[0], self._plan.root
        per_service = {
            name: (float(mean[i]), float(cov[i, i]), float(cov[i, r]))
            for i, name in enumerate(self._names)
        }
        return (
            float(mean[r]),
            float(cov[r, r] + self._response_var),
            per_service,
        )

    def blame(self, budgets: Mapping[str, float], sla: float) -> dict[str, float]:
        """Per-service posterior blame ``P(X_i > b_i | D > sla)`` from
        :meth:`response_moments`; see :func:`repro.bn.budgets.normal_blame`."""
        from repro.bn.budgets import normal_blame

        d_mean, d_var, moments = self.response_moments()
        return normal_blame(moments, d_mean, d_var, budgets, sla)
