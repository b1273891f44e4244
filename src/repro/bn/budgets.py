"""SLO budget decomposition: invert ``D = f(X)`` into per-service budgets.

The KERT-BN composes per-service time distributions into the end-to-end
delay ``D = f(X)`` (Eq. 4); the SLO monitor judges the *end-to-end*
objective ``P(D > sla) <= target``.  This module runs the composition
backwards (Andre et al., "Automated synthesis of local time requirement
for service composition"): it synthesizes per-service budgets ``b_i``
such that

1. **composition invariant** — ``f`` is monotone nondecreasing in every
   coordinate (sums, maxes, nonnegative scales/weights), so whenever
   every service honors its budget (``X_i <= b_i``) the recomposed bound
   ``g(b) <= sla`` guarantees ``D <= sla`` deterministically; and
2. **probability budget** — the per-service tail masses
   ``eps_i = P(X_i > b_i)`` (under the model's marginals) union-bound
   the end-to-end breach: ``P(D > sla) <= sum_i eps_i <= target``.

Budgets are *maximal* subject to (1): every service gets the same slack
multiplier ``lambda`` over its marginal (``b_i = mu_i + lambda *
sigma_i``) and ``lambda`` is pushed up until the recomposition pins the
SLA — the weakest local requirements that still guarantee the global
one, which is exactly what makes a budget overrun diagnostic: a service
only burns its budget when it is eating into the end-to-end allocation.
The allocation is *feasible* when the maximal slack still satisfies (2).

For choice constructs the workflow-aware composition
(:func:`budget_composition`) is tighter than ``f`` itself: measurement
mode reduces a choice to the sum over branches (untaken branches
measure zero), but a budget only ever covers the one branch that runs,
so the recomposition takes the max over branch bounds instead.  Loaded
bundles that carry only the bare expression fall back to ``g = f``,
which stays sound by monotonicity.

Posterior blame — the share of breach probability attributable to each
service, ``P(X_i > b_i | D > sla)`` — comes from the compiled discrete
engine's joint tables (:func:`discrete_blame`) or from the Gaussian
moment propagation's covariances (:func:`normal_blame`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np
from numpy.typing import ArrayLike
from scipy.special import ndtr, owens_t

from repro.exceptions import ReproError
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
    WorkflowNode,
)
from repro.workflow.expressions import Expression, Max, Sum, Var, simplify

__all__ = [
    "ServiceBudget",
    "BudgetAllocation",
    "budget_composition",
    "allocate_budgets",
    "derive_budgets",
    "model_marginals",
    "discrete_blame",
    "normal_blame",
]

#: Bisection iterations for the maximal slack multiplier; 60 halvings
#: of the bracketing interval put lambda within ~1e-15 relative.
_BISECT_ITERS = 60
#: Doubling cap while bracketing lambda_max — 2**60 slack units means
#: the SLA is unreachably far above the workflow's scale (e.g. a parked
#: 1e6-second policy); budgets are then effectively unbounded.
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class ServiceBudget:
    """One service's local time requirement."""

    service: str
    budget: float       # b_i: local bound (seconds)
    mean: float         # marginal mean under the reference model
    std: float          # marginal std under the reference model
    tail_mass: float    # eps_i = P(X_i > b_i) under the reference marginal

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "budget": self.budget,
            "mean": self.mean,
            "std": self.std,
            "tail_mass": self.tail_mass,
        }


@dataclass(frozen=True)
class BudgetAllocation:
    """A synthesized per-service budget vector plus its audit trail.

    ``composed`` is the recomposition ``g(b)`` — the worst-case
    end-to-end delay when every budget holds; ``tail_total`` the
    union-bound breach mass ``sum_i P(X_i > b_i)``.  ``feasible`` means
    both invariants hold: ``composed <= sla`` and ``tail_total <=
    target``.
    """

    sla: float
    target: float
    slack: float          # shared z-multiplier lambda
    composed: float       # g(b): recomposed end-to-end bound
    tail_total: float     # union-bound P(D > sla) given the budgets
    feasible: bool
    expression: str       # printable form of the composition g
    budgets: tuple[ServiceBudget, ...]

    def as_mapping(self) -> dict[str, float]:
        return {sb.service: sb.budget for sb in self.budgets}

    def to_dict(self) -> dict:
        return {
            "sla": self.sla,
            "target": self.target,
            "slack": self.slack,
            "composed": self.composed,
            "tail_total": self.tail_total,
            "feasible": self.feasible,
            "expression": self.expression,
            "budgets": [sb.to_dict() for sb in self.budgets],
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "BudgetAllocation":
        return cls(
            sla=float(spec["sla"]),
            target=float(spec["target"]),
            slack=float(spec["slack"]),
            composed=float(spec["composed"]),
            tail_total=float(spec["tail_total"]),
            feasible=bool(spec["feasible"]),
            expression=str(spec["expression"]),
            budgets=tuple(
                ServiceBudget(
                    service=str(b["service"]),
                    budget=float(b["budget"]),
                    mean=float(b["mean"]),
                    std=float(b["std"]),
                    tail_mass=float(b["tail_mass"]),
                )
                for b in spec["budgets"]
            ),
        )


# --------------------------------------------------------------------- #
# Composition (the structural inverse of the Cardoso reduction)
# --------------------------------------------------------------------- #


def budget_composition(workflow: WorkflowNode) -> Expression:
    """The budget-recomposition bound ``g`` over the workflow structure.

    Mirrors the measurement-mode Cardoso reduction except for choice:
    sequence -> sum, parallel -> max, loop -> body (measured totals
    already accumulate the iterations), but **choice -> max** over the
    branch bounds — exactly one branch runs per transaction, so a
    transaction's contribution is covered by the largest branch budget,
    not the sum the measurement-mode ``f`` uses over its all-but-one-
    zero columns.  For any totals vector with ``x_i <= b_i`` (and at
    most one live choice branch), ``f(x) <= g(b)``.
    """
    if isinstance(workflow, Activity):
        return Var(workflow.name)
    if isinstance(workflow, Sequence):
        terms = [budget_composition(s) for s in workflow.steps]
        return terms[0] if len(terms) == 1 else Sum(terms)
    if isinstance(workflow, Parallel):
        branches = [budget_composition(b) for b in workflow.branches]
        return branches[0] if len(branches) == 1 else Max(branches)
    if isinstance(workflow, Choice):
        branches = [budget_composition(b) for b in workflow.branches]
        return branches[0] if len(branches) == 1 else Max(branches)
    if isinstance(workflow, Loop):
        return budget_composition(workflow.body)
    raise ReproError(f"cannot derive a budget bound for {type(workflow)!r}")


def _compose(g: Expression, values: Mapping[str, float]) -> float:
    arrays = {name: np.asarray([float(v)]) for name, v in values.items()}
    return float(np.asarray(g(arrays))[0])


# --------------------------------------------------------------------- #
# Allocation (bisection on the shared slack multiplier)
# --------------------------------------------------------------------- #


def allocate_budgets(
    composition: Expression,
    marginals: Mapping[str, tuple[float, float]],
    sla: float,
    target: float,
    min_sigma_fraction: float = 0.01,
) -> BudgetAllocation:
    """Synthesize maximal per-service budgets under ``composition``.

    ``marginals`` maps each service to its reference ``(mean, std)``.
    ``min_sigma_fraction`` floors each std at that fraction of the mean
    so near-deterministic services still receive nonzero headroom.
    """
    if not sla > 0:
        raise ReproError(f"sla must be > 0, got {sla}")
    if not 0.0 < target < 1.0:
        raise ReproError(f"target must be in (0, 1), got {target}")
    services = tuple(sorted(composition.inputs))
    if not services:
        raise ReproError("composition has no service inputs")
    missing = [s for s in services if s not in marginals]
    if missing:
        raise ReproError(f"no marginals for services {missing}")
    mu = {s: float(marginals[s][0]) for s in services}
    sigma = {
        s: max(
            float(marginals[s][1]),
            min_sigma_fraction * abs(mu[s]),
            1e-12,
        )
        for s in services
    }

    def compose(lam: float) -> float:
        return _compose(
            composition, {s: mu[s] + lam * sigma[s] for s in services}
        )

    base = compose(0.0)
    if base > sla:
        # Even zero-slack budgets (b_i = mu_i) recompose above the SLA:
        # the objective is structurally unreachable for this model.
        lam = 0.0
        feasible = False
    else:
        lo, hi = 0.0, 1.0
        for _ in range(_MAX_DOUBLINGS):
            if compose(hi) > sla:
                break
            lo, hi = hi, hi * 2.0
        if compose(hi) <= sla:
            lam = hi  # SLA unreachably far above the workflow's scale
        else:
            for _ in range(_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                if compose(mid) <= sla:
                    lo = mid
                else:
                    hi = mid
            lam = lo
        feasible = True
    tail = float(ndtr(-lam))  # P(Z > lambda), shared by every service
    tails = {
        s: (tail if marginals[s][1] > 0 or mu[s] > 0 else 0.0)
        for s in services
    }
    tail_total = float(sum(tails.values()))
    composed = compose(lam)
    feasible = (
        feasible
        and composed <= sla * (1 + 1e-9)
        and tail_total <= target + 1e-12
    )
    budgets = tuple(
        ServiceBudget(
            service=s,
            budget=mu[s] + lam * sigma[s],
            mean=mu[s],
            std=float(marginals[s][1]),
            tail_mass=tails[s],
        )
        for s in services
    )
    return BudgetAllocation(
        sla=float(sla),
        target=float(target),
        slack=float(lam),
        composed=float(composed),
        tail_total=tail_total,
        feasible=bool(feasible),
        expression=simplify(composition).to_string(),
        budgets=budgets,
    )


# --------------------------------------------------------------------- #
# Model-facing helpers (duck-typed over KERTBN to keep layering flat)
# --------------------------------------------------------------------- #


def model_marginals(model: Any) -> dict[str, tuple[float, float]]:
    """Per-service ``(mean, std)`` marginals from a built KERT-BN.

    Continuous models read the exact service-layer joint Gaussian their
    cached assessor holds; discrete models take moments of each
    compiled-engine prior over the discretizer's bin centers.
    """
    if model.kind == "kert-bn/continuous":
        names, mean, cov = model.assessor.joint
        return {
            str(n): (
                float(mean[i]),
                math.sqrt(max(float(cov[i, i]), 0.0)),
            )
            for i, n in enumerate(names)
        }
    if model.discretizer is None:
        raise ReproError(
            "discrete model carries no discretizer; cannot recover "
            "service marginals in original units"
        )
    engine = model.network.compiled()
    out: dict[str, tuple[float, float]] = {}
    for name in sorted(model.f.expression.inputs):
        pmf = np.asarray(engine.prior(name).values, dtype=float)
        centers = np.asarray(model.discretizer.centers(name), dtype=float)
        m = float(pmf @ centers)
        var = float(pmf @ (centers - m) ** 2)
        out[name] = (m, math.sqrt(max(var, 0.0)))
    return out


def derive_budgets(model: Any, sla: float, target: float) -> BudgetAllocation:
    """Invert a built KERT-BN into a :class:`BudgetAllocation`.

    Uses the workflow-aware composition when the model still carries its
    AST (freshly built), or the bare expression (loaded bundles) — both
    sound, the former tighter for choice constructs.
    """
    f = getattr(model, "f", None)
    if f is None or getattr(f, "expression", None) is None:
        raise ReproError(
            "budget derivation needs a KERT-BN (a model with the "
            "workflow response function f); NRT-BN models have no "
            "structure to invert"
        )
    composition = (
        budget_composition(f.workflow)
        if f.workflow is not None
        else f.expression
    )
    return allocate_budgets(
        composition, model_marginals(model), sla=sla, target=target
    )


# --------------------------------------------------------------------- #
# Posterior blame: P(X_i > b_i | D > sla)
# --------------------------------------------------------------------- #


def _exceedance_weights(edges: np.ndarray, threshold: float) -> np.ndarray:
    """Per-bin fraction of bin width above ``threshold`` (uniform-in-bin).

    Center classification would round ``P(X > t)`` to whole bins — with
    a handful of quantile bins that rounds budget-scale thresholds
    (which sit deep in the top bin) straight to zero.  The linear
    within-bin fraction keeps the exceedance mass smooth in ``t``.
    """
    lo, hi = edges[:-1], edges[1:]
    width = np.maximum(hi - lo, 1e-300)
    return np.clip((hi - float(threshold)) / width, 0.0, 1.0)


def discrete_blame(
    engine: Any,
    discretizer: Any,
    response: str,
    budgets: Mapping[str, float],
    sla: float,
) -> dict[str, float]:
    """Per-service blame from the compiled engine's joint tables.

    For each service the engine answers the evidence-free joint
    ``P(X_i, D)`` (one cached plan per service, its axes in that order
    as :meth:`~repro.bn.inference.engine.CompiledDiscreteModel.pmf`
    returns them); exceedance masses are
    taken uniform-within-bin over the discretizer's edges, and the
    blame is the conditional mass ``P(X_i > b_i | D > sla)``.
    """
    d_w = _exceedance_weights(
        np.asarray(discretizer.edges(response), dtype=float), sla
    )
    blame: dict[str, float] = {}
    for service, bound in budgets.items():
        values = engine.pmf((service, response), {})
        s_w = _exceedance_weights(
            np.asarray(discretizer.edges(service), dtype=float), bound
        )
        p_breach = float((values @ d_w).sum())
        if p_breach <= 0.0:
            blame[service] = 0.0
            continue
        joint = float(s_w @ values @ d_w)
        blame[service] = min(max(joint / p_breach, 0.0), 1.0)
    return blame


def _upper_orthant(h: ArrayLike, k: ArrayLike, rho: ArrayLike) -> np.ndarray:
    """``P(X > h, Y > k)`` for standard bivariate normals with correlation
    ``rho``, elementwise, in closed form via Owen's T function.

    Owen (1956): with ``s = sqrt(1 - rho**2)``, the lower orthant at
    ``(x, y) = (-h, -k)`` is ``Phi(x)/2 + Phi(y)/2 - T(x, (y - rho x) /
    (x s)) - T(y, (x - rho y) / (y s)) - beta``, ``beta = 1/2`` when
    ``x`` and ``y`` have opposite signs.  At ``x = 0`` the first T term
    and ``beta`` cancel against ``Phi(0)/2``, leaving ``Phi(y)/2 + T(y,
    rho / s)`` (symmetrically at ``y = 0``; both zero gives ``1/4 +
    asin(rho) / (2 pi)``).
    """
    x, y = -np.asarray(h, dtype=float), -np.asarray(k, dtype=float)
    rho = np.asarray(rho, dtype=float)
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    x_s = np.where(x == 0.0, 1.0, x) * s  # zero rows are replaced below
    y_s = np.where(y == 0.0, 1.0, y) * s
    general = (
        0.5 * (ndtr(x) + ndtr(y))
        - owens_t(x, (y - rho * x) / x_s)
        - owens_t(y, (x - rho * y) / y_s)
        - np.where((x < 0.0) != (y < 0.0), 0.5, 0.0)
    )
    out = np.where(x == 0.0, 0.5 * ndtr(y) + owens_t(y, rho / s), general)
    return np.where(y == 0.0, 0.5 * ndtr(x) + owens_t(x, rho / s), out)


def normal_blame(
    moments: Mapping[str, tuple[float, float, float]],
    d_mean: float,
    d_var: float,
    budgets: Mapping[str, float],
    sla: float,
) -> dict[str, float]:
    """Per-service blame under the Gaussian moment summary.

    ``moments`` maps each service to ``(mean, var, cov(X_i, D))`` as
    produced by :meth:`repro.apps.assessment.RapidAssessor.
    response_moments`; the joint of ``(X_i, D)`` is approximated as
    bivariate normal (D's moments already carry the Clark max
    propagation), giving a closed-form orthant probability per service
    (:func:`_upper_orthant`, all services in one vectorized call).
    """
    d_std = math.sqrt(max(float(d_var), 1e-18))
    zt = (float(sla) - d_mean) / d_std
    p_breach = float(ndtr(-zt))  # norm.sf(sla, d_mean, d_std), bit for bit
    blame = {service: 0.0 for service in budgets}
    if p_breach <= 1e-300:
        return blame
    # "not v <= 0" as the scalar test had it: a NaN variance is not skipped.
    live = [s for s in budgets if s in moments and not moments[s][1] <= 0.0]
    if not live:
        return blame
    m, v, c = np.array([moments[s] for s in live], dtype=float).T
    bound = np.array([budgets[s] for s in live], dtype=float)
    s_std = np.sqrt(v)
    rho = np.clip(c / (s_std * d_std), -0.999999, 0.999999)
    joint = _upper_orthant((bound - m) / s_std, zt, rho)
    share = np.clip(joint / p_breach, 0.0, 1.0)
    blame.update(zip(live, share.tolist()))
    return blame
