"""ASCII rendering of workflows and DAGs."""

import numpy as np

from repro.workflow.constructs import (
    Activity,
    Choice,
    Loop,
    Parallel,
    Sequence,
)
from repro.workflow.generator import random_workflow
from repro.workflow.visualize import render_structure_summary, render_workflow


def test_render_activity():
    assert render_workflow(Activity("svc")) == "svc"


def test_render_nested_tree():
    wf = Sequence(
        [
            Activity("a"),
            Parallel([Activity("b"), Loop(Activity("c"), 0.25)]),
            Choice([Activity("d"), Activity("e")], [0.3, 0.7]),
        ]
    )
    text = render_workflow(wf)
    lines = text.splitlines()
    assert lines[0] == "sequence"
    assert "parallel" in text
    assert "loop (continue=0.25)" in text
    assert "choice [0.3, 0.7]" in text
    # Every service appears exactly once.
    for s in "abcde":
        assert sum(s == token.strip("│├└── ") for token in lines) == 1


def test_render_all_services_for_random_workflows():
    rng = np.random.default_rng(1)
    for _ in range(10):
        wf = random_workflow(int(rng.integers(1, 15)), rng,
                             p_choice=0.2, p_loop=0.15)
        text = render_workflow(wf)
        for s in wf.services():
            assert s in text


def test_structure_summary():
    from repro.workflow.structure import kert_bn_structure
    from repro.simulator.scenarios.ediamond import ediamond_workflow

    dag = kert_bn_structure(ediamond_workflow())
    summary = render_structure_summary(dag, response="D")
    assert "7 nodes" in summary
    assert "11 edges" in summary
    assert "response 'D' with 6 parents" in summary
