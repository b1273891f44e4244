"""Timeout-request-count reduction.

Section 3.3 notes that Eq. 4 also covers other transaction-oriented
metrics, naming the *timeout request count*: there ``D`` counts timed-out
end-to-end transactions, ``X`` holds per-service sub-transaction timeout
counts, and *"f should take the form of* ``D = Σ X_i``" — counts add
regardless of sequential/parallel composition.
"""

from __future__ import annotations

from repro.workflow.constructs import WorkflowNode
from repro.workflow.expressions import Sum, Var, simplify
from repro.workflow.response_time import ResponseTimeFunction


def timeout_count_function(workflow: WorkflowNode) -> ResponseTimeFunction:
    """``f(X) = Σ_i X_i`` over the workflow's services."""
    workflow.validate()
    expr = simplify(Sum([Var(s) for s in workflow.services()]))
    return ResponseTimeFunction(workflow, expr)
