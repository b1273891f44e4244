"""Cardoso-style reduction: workflow → deterministic response-time ``f(X)``.

Section 3.3: *"The deterministic function f can be easily derived from
any workflow formed by any combination of four key workflow constructs:
sequence, parallel, choice and loop"*.  For the eDiaMoND workflow the
result is ``D = X1 + X2 + max(X3 + X5, X4 + X6)``.

Under the monitoring convention that ``X_i`` is the total elapsed time
spent at service *i* during one transaction (0 if not invoked), ``f`` is
evaluated on *measured* per-transaction totals: a Choice reduces to a
plain Sum of its branches (exactly one branch is nonzero) and a Loop to
its body (repetitions already accumulated into the totals).  The
reduction is *exact* per transaction — with one documented exception: a
Parallel nested inside a Loop, where the true response is a sum of
per-iteration maxima while ``f`` computes the maximum of the summed
totals, so ``f(X) <= D`` (use :func:`has_parallel_under_loop` to detect
the case).  The paper's evaluation workflows (sequence/parallel) are
always exact.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.exceptions import WorkflowError
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
    WorkflowNode,
)
from repro.workflow.expressions import Expression, Max, Sum, Var, simplify


def _reduce(node: WorkflowNode) -> Expression:
    if isinstance(node, Activity):
        return Var(node.name)
    if isinstance(node, Sequence):
        return Sum([_reduce(s) for s in node.steps])
    if isinstance(node, Parallel):
        return Max([_reduce(b) for b in node.branches])
    if isinstance(node, Choice):
        # Exactly one branch ran; the others measured 0.
        return Sum([_reduce(b) for b in node.branches])
    if isinstance(node, Loop):
        # Totals already include every iteration.
        return _reduce(node.body)
    raise WorkflowError(f"unknown workflow node {type(node)!r}")


class ResponseTimeFunction:
    """The deterministic ``f`` of Eq. 4, with provenance.

    Callable with ``{service: (n,) ndarray}`` and returning the ``(n,)``
    end-to-end response times the workflow implies.
    """

    def __init__(self, workflow: WorkflowNode, expression: Expression):
        self.workflow = workflow
        self.expression = expression

    @property
    def inputs(self) -> frozenset[str]:
        return self.expression.inputs

    def __call__(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.expression(values)

    def to_string(self) -> str:
        return self.expression.to_string()

    def __repr__(self) -> str:
        return f"ResponseTimeFunction<D = {self.to_string()}>"


def has_parallel_under_loop(workflow: WorkflowNode) -> bool:
    """True if some Parallel construct lies inside a Loop body.

    In that configuration ``f`` lower-bounds the
    true response time (sum of per-iteration maxima >= max of sums).
    """
    def visit(node: WorkflowNode, inside_loop: bool) -> bool:
        if isinstance(node, Parallel) and inside_loop:
            return True
        if isinstance(node, Loop):
            inside_loop = True
        return any(visit(child, inside_loop) for child in node.children())

    return visit(workflow, False)


def response_time_function(workflow: WorkflowNode) -> ResponseTimeFunction:
    """Reduce ``workflow`` to its deterministic response-time function.

    The workflow is validated first; the returned function's ``inputs``
    equal the workflow's service set (loops/choices included).
    """
    workflow.validate()
    expr = simplify(_reduce(workflow))
    fn = ResponseTimeFunction(workflow, expr)
    if fn.inputs != frozenset(workflow.services()):
        raise WorkflowError(
            "reduction lost services: "
            f"{sorted(frozenset(workflow.services()) - fn.inputs)}"
        )  # pragma: no cover - internal consistency guard
    return fn
