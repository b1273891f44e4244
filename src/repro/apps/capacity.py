"""Branch-dominance analysis for parallel joins.

Section 5.2's motivating observation — "if service A is being invoked in
parallel with another service B that has a significantly longer elapsed
time, reducing A's elapsed time can do little" — has a quantitative
core: *how often* does each branch of a parallel join determine the join
time?  This module computes exactly that from a continuous KERT-BN:

- :func:`branch_dominance` — for every ``Max`` node in the model's
  workflow expression, the probability that each operand attains the
  maximum (Monte Carlo over the service-layer joint Gaussian);
- :func:`acceleration_headroom` — the largest possible end-to-end gain
  from accelerating one service to zero, an upper bound that tells an
  autonomic planner when to stop trying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kertbn import KERTBN
from repro.exceptions import InferenceError
from repro.utils.rng import ensure_rng
from repro.workflow.expressions import Expression, Max


@dataclass
class MaxNodeDominance:
    """Dominance probabilities for one parallel join."""

    description: str
    operands: tuple
    probabilities: tuple


def _service_samples(model: KERTBN, n_samples: int, rng) -> dict:
    from repro.bn.network import HybridResponseNetwork

    if not isinstance(model.network, HybridResponseNetwork):
        raise InferenceError("branch dominance needs the continuous KERT-BN")
    data = model.network.service_subnetwork().sample(n_samples, rng)
    return {c: np.asarray(data[c]) for c in data.columns}


def branch_dominance(
    model: KERTBN, n_samples: int = 30_000, rng=None
) -> list[MaxNodeDominance]:
    """Dominance probabilities for every ``Max`` in the model's ``f``."""
    rng = ensure_rng(rng)
    values = _service_samples(model, n_samples, rng)
    results: list[MaxNodeDominance] = []

    def visit(expr: Expression) -> None:
        if isinstance(expr, Max):
            branch_values = np.stack([t(values) for t in expr.terms])
            winners = np.argmax(branch_values, axis=0)
            probs = tuple(
                float(np.mean(winners == i)) for i in range(len(expr.terms))
            )
            results.append(
                MaxNodeDominance(
                    description=expr.to_string(),
                    operands=tuple(t.to_string() for t in expr.terms),
                    probabilities=probs,
                )
            )
        for child in getattr(expr, "terms", ()):
            visit(child)

    visit(model.f.expression)
    if not results:
        raise InferenceError("the workflow has no parallel joins")
    return results


def acceleration_headroom(
    model: KERTBN, n_samples: int = 30_000, rng=None
) -> dict[str, float]:
    """Upper bound on E[D] reduction from zeroing each service.

    Computed by re-evaluating ``f`` with one service's samples replaced
    by zero — no resource action can do better than eliminating the
    service entirely, so this bounds what pAccel can ever find.
    """
    rng = ensure_rng(rng)
    values = _service_samples(model, n_samples, rng)
    f = model.f
    base = float(np.mean(f(values)))
    out = {}
    for service in sorted(f.inputs):
        patched = dict(values)
        patched[service] = np.zeros_like(values[service])
        out[service] = base - float(np.mean(f(patched)))
    return out
