"""ASCII rendering of workflows and Bayesian-network structures.

Operators reading `repro inspect-workflow` output (and test failures
involving structures) benefit from seeing the shape, not just edge
lists.  Pure-text rendering keeps the library dependency-free.
"""

from __future__ import annotations

from repro.bn.dag import DAG
from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
    WorkflowNode,
)


def render_workflow(node: WorkflowNode, indent: str = "") -> str:
    """Tree rendering of a workflow AST.

    >>> from repro.workflow.constructs import sequence_of
    >>> print(render_workflow(sequence_of("a", "b")))
    sequence
    ├── a
    └── b
    """
    lines: list[str] = []

    def label(n: WorkflowNode) -> str:
        if isinstance(n, Activity):
            return n.name
        if isinstance(n, Sequence):
            return "sequence"
        if isinstance(n, Parallel):
            return "parallel"
        if isinstance(n, Choice):
            probs = ", ".join(f"{p:g}" for p in n.probabilities)
            return f"choice [{probs}]"
        if isinstance(n, Loop):
            return f"loop (continue={n.continue_prob:g})"
        return type(n).__name__  # pragma: no cover - future constructs

    def walk(n: WorkflowNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(label(n))
            child_prefix = ""
        else:
            connector = "└── " if is_last else "├── "
            lines.append(prefix + connector + label(n))
            child_prefix = prefix + ("    " if is_last else "│   ")
        kids = n.children()
        for i, child in enumerate(kids):
            walk(child, child_prefix, i == len(kids) - 1, False)

    walk(node, indent, True, True)
    return "\n".join(lines)


def render_structure_summary(dag: DAG, response: "str | None" = None) -> str:
    """One-paragraph structural summary (node/edge counts, depth, fan-in)."""
    order = dag.topological_order()
    depth = {n: 0 for n in order}
    for n in order:
        for c in dag.children(n):
            depth[c] = max(depth[c], depth[n] + 1)
    max_depth = max(depth.values()) if depth else 0
    max_fan_in = max((dag.in_degree(n) for n in dag.nodes), default=0)
    parts = [
        f"{dag.n_nodes} nodes",
        f"{dag.n_edges} edges",
        f"depth {max_depth}",
        f"max fan-in {max_fan_in}",
        f"{len(dag.roots())} root(s)",
    ]
    if response is not None and response in dag:
        parts.append(f"response {response!r} with {dag.in_degree(response)} parents")
    return ", ".join(parts)
