"""Workflow algebra and its two knowledge extractions.

A workflow is a composition of the paper's four constructs — sequence,
parallel, choice, loop (Section 3.3, after Cardoso et al.) — over named
service activities.  Two pieces of domain knowledge are derived from it:

1. the deterministic response-time function ``f(X)`` that parameterizes
   the Eq.-4 CPD of the response node (:mod:`repro.workflow.response_time`);
2. the KERT-BN DAG structure — immediate-upstream edges between service
   nodes plus resource-sharing nodes (:mod:`repro.workflow.structure`).
"""

from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
    WorkflowNode,
)
from repro.workflow.expressions import Expression, Max, Sum, Var
from repro.workflow.generator import random_workflow
from repro.workflow.parser import workflow_from_dict, workflow_to_dict
from repro.workflow.response_time import ResponseTimeFunction, response_time_function
from repro.workflow.structure import kert_bn_structure, workflow_edges
from repro.workflow.timeout import timeout_count_function

__all__ = [
    "WorkflowNode",
    "Activity",
    "Sequence",
    "Parallel",
    "Choice",
    "Loop",
    "Expression",
    "Var",
    "Sum",
    "Max",
    "ResponseTimeFunction",
    "response_time_function",
    "timeout_count_function",
    "workflow_edges",
    "kert_bn_structure",
    "random_workflow",
    "workflow_to_dict",
    "workflow_from_dict",
]
