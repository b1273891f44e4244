"""Model persistence.

The paper stresses that the implementation "can be integrated into
autonomic solutions with minimal effort"; an autonomic manager needs to
hand models between the management server and its decision components,
and to archive the model each reconstruction produced.  This module
serializes networks (and the workflow expressions inside Eq.-4 CPDs) to
plain JSON-compatible dicts.

Deterministic CPDs embed their workflow *expression tree*, which is
reconstructed on load — so a round-tripped KERT-BN keeps its ``f`` and
stays fully functional.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bn.cpd import (
    DeterministicCPD,
    LinearGaussianCPD,
    NoisyDeterministicCPD,
    TabularCPD,
)
from repro.bn.dag import DAG
from repro.bn.network import (
    BayesianNetwork,
    DiscreteBayesianNetwork,
    GaussianBayesianNetwork,
    HybridResponseNetwork,
)
from repro.exceptions import DataError
from repro.workflow.expressions import Expression, Max, Sum, Var


# --------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------- #


def expression_to_dict(expr) -> dict:
    # Unwrap ResponseTimeFunction-style wrappers onto their expression.
    if not isinstance(expr, Expression) and hasattr(expr, "expression"):
        expr = expr.expression
    if isinstance(expr, Var):
        return {"var": expr.name}
    if isinstance(expr, Sum):
        return {"sum": [expression_to_dict(t) for t in expr.terms]}
    if isinstance(expr, Max):
        return {"max": [expression_to_dict(t) for t in expr.terms]}
    raise DataError(f"cannot serialize expression {type(expr)!r}")


def expression_from_dict(spec: dict) -> Expression:
    if "var" in spec:
        return Var(spec["var"])
    if "sum" in spec:
        return Sum([expression_from_dict(t) for t in spec["sum"]])
    if "max" in spec:
        return Max([expression_from_dict(t) for t in spec["max"]])
    raise DataError(f"unknown expression spec keys {sorted(spec)}")


# --------------------------------------------------------------------- #
# CPDs
# --------------------------------------------------------------------- #


def cpd_to_dict(cpd) -> dict:
    if isinstance(cpd, TabularCPD):
        return {
            "kind": "tabular",
            "variable": cpd.variable,
            "cardinality": cpd.cardinality,
            "parents": list(cpd.parents),
            "parent_cardinalities": list(cpd.parent_cardinalities),
            "values": cpd.values.tolist(),
        }
    if isinstance(cpd, LinearGaussianCPD):
        return {
            "kind": "linear_gaussian",
            "variable": cpd.variable,
            "intercept": cpd.intercept,
            "coefficients": cpd.coefficients.tolist(),
            "variance": cpd.variance,
            "parents": list(cpd.parents),
        }
    if isinstance(cpd, DeterministicCPD):
        return {
            "kind": "deterministic",
            "variable": cpd.variable,
            "parents": list(cpd.parents),
            "expression": expression_to_dict(cpd.function),
            "parent_centers": {p: c.tolist() for p, c in cpd.parent_centers.items()},
            "child_edges": cpd.child_edges.tolist(),
            "leak": cpd.leak,
            "leak_decay": cpd.leak_decay,
            "transition": cpd._transition.tolist(),
        }
    if isinstance(cpd, NoisyDeterministicCPD):
        return {
            "kind": "noisy_deterministic",
            "variable": cpd.variable,
            "parents": list(cpd.parents),
            "expression": expression_to_dict(cpd.function),
            "variance": cpd.variance,
        }
    raise DataError(f"cannot serialize CPD {type(cpd)!r}")


def cpd_from_dict(spec: dict):
    kind = spec.get("kind")
    if kind == "tabular":
        return TabularCPD(
            spec["variable"],
            spec["cardinality"],
            np.asarray(spec["values"]),
            tuple(spec["parents"]),
            tuple(spec["parent_cardinalities"]),
        )
    if kind == "linear_gaussian":
        return LinearGaussianCPD(
            spec["variable"],
            spec["intercept"],
            spec["coefficients"],
            spec["variance"],
            tuple(spec["parents"]),
        )
    if kind == "deterministic":
        return DeterministicCPD(
            spec["variable"],
            expression_from_dict(spec["expression"]),
            tuple(spec["parents"]),
            {p: np.asarray(c) for p, c in spec["parent_centers"].items()},
            np.asarray(spec["child_edges"]),
            leak=spec["leak"],
            leak_decay=spec["leak_decay"],
            transition=np.asarray(spec["transition"]),
        )
    if kind == "noisy_deterministic":
        return NoisyDeterministicCPD(
            spec["variable"],
            expression_from_dict(spec["expression"]),
            tuple(spec["parents"]),
            variance=spec["variance"],
        )
    raise DataError(f"unknown CPD kind {kind!r}")


# --------------------------------------------------------------------- #
# Networks
# --------------------------------------------------------------------- #

_NETWORK_KINDS = {
    "discrete": DiscreteBayesianNetwork,
    "gaussian": GaussianBayesianNetwork,
    "hybrid": HybridResponseNetwork,
    "generic": BayesianNetwork,
}


def network_to_dict(network: BayesianNetwork) -> dict:
    if isinstance(network, HybridResponseNetwork):
        kind = "hybrid"
    elif isinstance(network, DiscreteBayesianNetwork):
        kind = "discrete"
    elif isinstance(network, GaussianBayesianNetwork):
        kind = "gaussian"
    else:
        kind = "generic"
    out: dict[str, Any] = {
        "kind": kind,
        "nodes": [str(n) for n in network.dag.nodes],
        "edges": [[str(u), str(v)] for u, v in network.dag.edges],
        "cpds": [cpd_to_dict(network.cpd(str(n))) for n in network.dag.nodes],
    }
    if kind == "hybrid":
        out["response"] = network.response
    return out


def network_from_dict(spec: dict) -> BayesianNetwork:
    kind = spec.get("kind", "generic")
    if kind not in _NETWORK_KINDS:
        raise DataError(f"unknown network kind {kind!r}")
    dag = DAG(nodes=spec["nodes"], edges=[tuple(e) for e in spec["edges"]])
    cpds = [cpd_from_dict(c) for c in spec["cpds"]]
    cls = _NETWORK_KINDS[kind]
    if kind == "hybrid":
        return HybridResponseNetwork(dag, cpds, response=spec["response"])
    return cls(dag, cpds)
