"""Figure 2 — the KERT-BN DAG for the eDiaMoND scenario.

Figure 2 is a structure diagram, so its "reproduction" is the derived
DAG itself: the benchmark prints the edge list, asserts it matches the
figure, and times the knowledge-based structure derivation (the cost
that replaces NRT-BN's structure search).
"""

from _util import emit_series

from repro.simulator.scenarios.ediamond import ediamond_workflow
from repro.workflow.response_time import response_time_function
from repro.workflow.structure import kert_bn_structure


EXPECTED_WORKFLOW_EDGES = {
    ("X1", "X2"),
    ("X2", "X3"),
    ("X2", "X4"),
    ("X3", "X5"),
    ("X4", "X6"),
}


def test_fig2_structure(benchmark):
    workflow = ediamond_workflow()
    dag = benchmark(kert_bn_structure, workflow)

    service_edges = {
        (u, v) for u, v in dag.edges if u != "D" and v != "D"
    }
    assert service_edges == EXPECTED_WORKFLOW_EDGES
    assert set(dag.parents("D")) == {"X1", "X2", "X3", "X4", "X5", "X6"}

    f = response_time_function(workflow)
    assert f.to_string() == "X1 + X2 + max(X3 + X5, X4 + X6)"

    rows = [{"edge": f"{u} -> {v}"} for u, v in sorted(dag.edges)]
    rows.append({"edge": f"f: D = {f.to_string()}"})
    emit_series("fig2", "KERT-BN structure for the eDiaMoND scenario", rows, timing=())
