"""Exact discrete inference by variable elimination.

Used by the discrete Section-5 models: dComp's posterior over an
unobservable service's elapsed-time bins, and pAccel's posterior response
-time distribution given an accelerated service.  The elimination order is
chosen greedily by the min-fill heuristic, which is near-optimal for the
small, workflow-shaped networks that arise here; candidates are scanned
in sorted order, so ties break the same way under any ``PYTHONHASHSEED``.

:func:`eliminate` runs over an already-extracted factor list, so a caller
that answers many queries (the serving fallback chain's exact tier) pays
the CPD→factor extraction once; :func:`query` extracts and delegates.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.bn.cpd.deterministic import DeterministicCPD
from repro.bn.cpd.tabular import TabularCPD
from repro.bn.factors import DiscreteFactor
from repro.exceptions import InferenceError


def network_factors(network) -> list[DiscreteFactor]:
    """One factor per CPD, in node order."""
    factors = []
    for node in network.nodes:
        cpd = network.cpd(node)
        if isinstance(cpd, (TabularCPD, DeterministicCPD)):
            factors.append(cpd.to_factor())
        else:
            raise InferenceError(
                f"variable elimination needs discrete CPDs; {node!r} has "
                f"{type(cpd).__name__}"
            )
    return factors


def _min_fill_order(factors: list[DiscreteFactor], hidden: set[str]) -> list[str]:
    """Greedy min-fill elimination order over ``hidden``."""
    # Build the interaction (moral-ish) graph of current factor scopes.
    adj: dict[str, set[str]] = {}
    for f in factors:
        for v in f.variables:
            adj.setdefault(v, set()).update(u for u in f.variables if u != v)
    order: list[str] = []
    remaining = set(hidden)
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            nbrs = sorted(adj.get(v, ()))
            fill = sum(
                1
                for i in range(len(nbrs))
                for j in range(i + 1, len(nbrs))
                if nbrs[j] not in adj[nbrs[i]]
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        order.append(best)
        remaining.discard(best)
        nbrs = adj.pop(best, set())
        for u in nbrs:
            adj[u].discard(best)
            adj[u] |= nbrs - {u}
    return order


def eliminate(
    factors: Sequence[DiscreteFactor],
    variables: Iterable[str],
    evidence: "Mapping[str, int] | None" = None,
) -> DiscreteFactor:
    """Posterior joint factor ``P(variables | evidence)`` from a network's
    CPD factors (as returned by :func:`network_factors`)."""
    variables = [str(v) for v in variables]
    evidence = {str(k): int(v) for k, v in (evidence or {}).items()}
    all_nodes = {v for f in factors for v in f.variables}
    unknown = (set(variables) | set(evidence)) - all_nodes
    if unknown:
        raise InferenceError(f"unknown variables {sorted(unknown)}")
    overlap = set(variables) & set(evidence)
    if overlap:
        raise InferenceError(f"variables also in evidence: {sorted(overlap)}")
    if not variables:
        raise InferenceError("need at least one query variable")

    # Factors fully covered by evidence collapse to scalars; track them so
    # the zero-probability-evidence check below stays meaningful.
    constants = 1.0
    live: list[DiscreteFactor] = []
    for f in factors:
        if set(f.variables) <= set(evidence):
            constants *= f.value_at(evidence)
        else:
            live.append(f.reduce(evidence))

    hidden = all_nodes - set(variables) - set(evidence)
    for var in _min_fill_order(live, hidden):
        related = [f for f in live if var in f.variables]
        live = [f for f in live if var not in f.variables]
        if not related:
            continue
        product = related[0]
        for f in related[1:]:
            product = product.product(f)
        if set(product.variables) == {var}:
            constants *= float(product.values.sum())
        else:
            live.append(product.marginalize([var]))

    if not live:
        raise InferenceError("query produced an empty factor set")
    result = live[0]
    for f in live[1:]:
        result = result.product(f)
    result = DiscreteFactor(result.variables, result.cardinalities, result.values * constants)
    if result.values.sum() <= 0:
        raise InferenceError("evidence has zero probability under the model")
    return result.normalize().permute(
        [v for v in variables if v in result.variables]
        + [v for v in result.variables if v not in variables]
    )


def query(
    network,
    variables: Iterable[str],
    evidence: "Mapping[str, int] | None" = None,
) -> DiscreteFactor:
    """Posterior joint factor ``P(variables | evidence)``.

    Parameters
    ----------
    network:
        A :class:`repro.bn.network.DiscreteBayesianNetwork`.
    variables:
        Query variables (kept in the returned factor's scope).
    evidence:
        Observed ``{variable: state_index}``.
    """
    return eliminate(network_factors(network), variables, evidence)
