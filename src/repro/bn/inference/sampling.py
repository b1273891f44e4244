"""Sampling-based inference.

Hybrid networks carry the workflow's nonlinear ``max`` in the response
CPD, which no closed-form posterior survives; likelihood weighting keeps
those queries answerable.  Forward (ancestral) sampling is each
network's own ``sample``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.bn.data import Dataset
from repro.exceptions import InferenceError
from repro.utils.rng import ensure_rng


def likelihood_weighting(
    network,
    evidence: Mapping[str, float],
    n: int = 10_000,
    rng=None,
) -> tuple[Dataset, np.ndarray]:
    """Draw weighted posterior samples given evidence.

    Evidence nodes are clamped to their observed values; every other node
    is sampled from its CPD given the (possibly clamped) parents.  Each
    sample's weight is the likelihood of the evidence nodes' CPDs at the
    clamped values.

    Returns
    -------
    (samples, weights):
        ``samples`` is a :class:`Dataset` over all network nodes (evidence
        columns are constant) and ``weights`` an ``(n,)`` array of
        unnormalized importance weights.
    """
    rng = ensure_rng(rng)
    evidence = {str(k): v for k, v in evidence.items()}
    unknown = set(evidence) - set(map(str, network.nodes))
    if unknown:
        raise InferenceError(f"evidence on unknown nodes {sorted(unknown)}")
    if n <= 0:
        raise InferenceError(f"sample size must be positive, got {n}")

    drawn: dict[str, np.ndarray] = {}
    log_weights = np.zeros(n)
    for node in network.dag.topological_order():
        node = str(node)
        cpd = network.cpd(node)
        parent_values = {p: drawn[p] for p in cpd.parents}
        if node in evidence:
            clamped = np.full(n, evidence[node])
            drawn[node] = clamped
            # Weight contribution: per-row likelihood of the clamped value.
            cols = {node: clamped, **{p: parent_values[p] for p in cpd.parents}}
            log_weights += cpd.log_likelihood(Dataset(cols))
        else:
            drawn[node] = cpd.sample(parent_values, n, rng)

    # Shift for numerical stability; weights are defined up to a constant.
    finite = np.isfinite(log_weights)
    if not finite.any():
        raise InferenceError("all importance weights are zero; evidence impossible?")
    shift = log_weights[finite].max()
    weights = np.where(finite, np.exp(log_weights - shift), 0.0)
    return Dataset({k: drawn[k] for k in map(str, network.nodes)}), weights


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """Importance-weighted posterior mean."""
    total = weights.sum()
    if total <= 0:
        raise InferenceError("weights sum to zero")
    return float(np.dot(values, weights) / total)
